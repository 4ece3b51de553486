#include "runtime/profile_store.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json_fields.hpp"
#include "common/run_metadata.hpp"

namespace ndft::runtime {
namespace {

constexpr const char* kStoreSchema = "ndft.device_profile_store.v1";

struct Entry {
  ProfileKey key;
  DeviceProfile cpu;
};

template <class Io>
void fields(Io& io, Entry& entry) {
  io("git_sha", entry.key.git_sha);
  io("host", entry.key.host);
  io("pool_threads", entry.key.pool_threads);
  io("cpu", entry.cpu);
}

struct StoreDocument {
  std::vector<Entry> entries;
};

template <class Io>
void fields(Io& io, StoreDocument& store) {
  io.schema(kStoreSchema, JsonAuthor::kProgram);
  io("entries", store.entries);
}

bool same_key(const ProfileKey& a, const ProfileKey& b) {
  return a.git_sha == b.git_sha && a.host == b.host &&
         a.pool_threads == b.pool_threads;
}

/// Loads every entry from disk; any read/parse/schema problem yields an
/// empty list (the store is a cache — see header).
std::vector<Entry> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream buffer;
  buffer << in.rdbuf();
  StoreDocument store;
  try {
    fields_from_json(Json::parse(buffer.str()), store);
  } catch (const NdftError&) {
    return {};
  }
  return std::move(store.entries);
}

void save(const std::string& path, const std::vector<Entry>& entries) {
  const Json j = fields_to_json(StoreDocument{entries});
  // Temp file + rename: readers never observe a half-written store.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw NdftError("profile store: cannot write " + tmp);
    out << j.dump(2) << "\n";
    if (!out) throw NdftError("profile store: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw NdftError("profile store: cannot replace " + path);
  }
}

}  // namespace

ProfileKey ProfileKey::current(std::size_t pool_threads) {
  ProfileKey key;
  key.git_sha = build_git_sha();
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    key.host = host;
  } else {
    key.host = "unknown";
  }
  key.pool_threads = pool_threads;
  return key;
}

ProfileStore::ProfileStore(std::string path) : path_(std::move(path)) {}

std::optional<DeviceProfile> ProfileStore::get_cpu(
    const ProfileKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& entry : load(path_)) {
    if (same_key(entry.key, key)) return entry.cpu;
  }
  return std::nullopt;
}

void ProfileStore::put_cpu(const ProfileKey& key,
                           const DeviceProfile& profile) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> entries = load(path_);
  for (Entry& entry : entries) {
    if (same_key(entry.key, key)) {
      entry.cpu = profile;
      save(path_, entries);
      return;
    }
  }
  entries.push_back(Entry{key, profile});
  save(path_, entries);
}

std::size_t ProfileStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return load(path_).size();
}

}  // namespace ndft::runtime
