#include "common/json_fields.hpp"

#include "common/str_util.hpp"

namespace ndft {
namespace json_detail {
namespace {

/// "job.kpoints[0].weight"; "document" for the root.
std::string render(const Path& path) {
  std::vector<const Path*> chain;
  for (const Path* p = &path; p->parent != nullptr; p = p->parent) {
    chain.push_back(p);
  }
  if (chain.empty()) return "document";
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if ((*it)->name == nullptr) {
      out += strformat("[%zu]", (*it)->index);
    } else {
      if (!out.empty()) out += '.';
      out += (*it)->name;
    }
  }
  return out;
}

}  // namespace

void fail(const Path& path, const std::string& what) {
  throw NdftError("json: '" + render(path) + "' " + what);
}

void fail_integer(const Path& path, std::intmax_t lowest,
                  std::uintmax_t highest) {
  fail(path, strformat("must be an integer literal in [%jd, %ju]", lowest,
                       highest));
}

}  // namespace json_detail

JsonReader::JsonReader(const Json& object, const Path& path,
                       bool absent_is_error)
    : object_(object), path_(path), absent_is_error_(absent_is_error) {
  if (!object.is_object()) json_detail::fail(path, "must be an object");
  seen_.resize(object.members().size());
}

const Json* JsonReader::find(const char* name) {
  const auto& members = object_.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].first == name) {
      seen_[i] = true;
      return &members[i].second;
    }
  }
  return nullptr;
}

void JsonReader::missing(const char* name) const {
  json_detail::fail(at(name), "is missing");
}

void JsonReader::schema(const char* tag, JsonAuthor author) {
  std::string value;
  required("schema", value);
  if (value != tag) {
    json_detail::fail(at("schema"), strformat("must be \"%s\"", tag));
  }
  absent_is_error_ = author == JsonAuthor::kProgram;
}

void JsonReader::finish() const {
  const auto& members = object_.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (!seen_[i]) {
      json_detail::fail(at(members[i].first.c_str()), "is an unknown member");
    }
  }
}

}  // namespace ndft
