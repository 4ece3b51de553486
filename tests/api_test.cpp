// Tests of the job-oriented Engine API: JSON model, request validation
// and rejection, JobResult serialization round-trips, async submission
// with cancellation, and the concurrent-submission determinism guarantee
// (results bitwise identical to serial execution).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <numbers>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "api/request_json.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "dft/kpoints.hpp"
#include "ndp/ndp_system.hpp"
#include "runtime/profile_store.hpp"

namespace ndft::api {
namespace {

// ------------------------------------------------------------------ Json

TEST(JsonTest, ScalarsRoundTrip) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(-42).dump(), "-42");
  EXPECT_EQ(Json(7u).dump(), "7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
}

TEST(JsonTest, LargeUint64Exact) {
  const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
  const Json value(big);
  EXPECT_EQ(Json::parse(value.dump()).as_uint(), big);
}

TEST(JsonTest, DoublePrecisionExact) {
  const double value = 0.1234567890123456789;
  const Json parsed = Json::parse(Json(value).dump());
  EXPECT_EQ(parsed.as_double(), value);
}

TEST(JsonTest, IntegralDoubleStaysNumber) {
  // 12.0 dumps with a ".0" marker so it reparses as a double, keeping
  // dump(parse(dump(x))) == dump(x).
  const std::string text = Json(12.0).dump();
  EXPECT_EQ(text, "12.0");
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(JsonTest, StringEscapes) {
  const std::string text = "line\nquote\"back\\slash\ttab";
  const Json parsed = Json::parse(Json(text).dump());
  EXPECT_EQ(parsed.as_string(), text);
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json object = Json::object();
  object.set("zeta", 1);
  object.set("alpha", 2);
  EXPECT_EQ(object.dump(), "{\"zeta\":1,\"alpha\":2}");
  // set() on an existing key replaces in place.
  object.set("zeta", 3);
  EXPECT_EQ(object.dump(), "{\"zeta\":3,\"alpha\":2}");
}

TEST(JsonTest, NestedContainersParse) {
  const Json parsed =
      Json::parse("{\"a\": [1, 2.5, \"x\"], \"b\": {\"c\": null}}");
  EXPECT_EQ(parsed.at("a").size(), 3u);
  EXPECT_EQ(parsed.at("a")[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(parsed.at("a")[1].as_double(), 2.5);
  EXPECT_TRUE(parsed.at("b").at("c").is_null());
}

TEST(JsonTest, NonFiniteDoublesCollapseToNullAndReadAsNan) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json(inf).dump(), "null");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  // A stored document containing such a value stays ingestible.
  EXPECT_TRUE(std::isnan(Json::parse("null").as_double()));
}

TEST(JsonTest, OutOfRangeDoubleToIntegerThrows) {
  EXPECT_THROW(Json(1e300).as_uint(), NdftError);
  EXPECT_THROW(Json(1e300).as_int(), NdftError);
  EXPECT_THROW(Json(-1.0).as_uint(), NdftError);
  EXPECT_THROW(Json(std::nan("")).as_uint(), NdftError);
  EXPECT_EQ(Json(42.0).as_uint(), 42u);
}

TEST(JsonTest, MalformedInputThrows) {
  EXPECT_THROW(Json::parse(""), NdftError);
  EXPECT_THROW(Json::parse("{"), NdftError);
  EXPECT_THROW(Json::parse("[1,]"), NdftError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), NdftError);
  EXPECT_THROW(Json::parse("\"unterminated"), NdftError);
  EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), NdftError);
}

// ------------------------------------------------------------ validation

TEST(JobValidationTest, GoodRequestsPass) {
  EXPECT_TRUE(validate(ScfJob{}).empty());
  EXPECT_TRUE(validate(BandStructureJob{}).empty());
  EXPECT_TRUE(validate(LrtddftJob{}).empty());
  EXPECT_TRUE(validate(SimulateJob{}).empty());
  EXPECT_TRUE(validate(PlanJob{}).empty());
}

TEST(JobValidationTest, AtomCountMustBeMultipleOfEight) {
  ScfJob job;
  job.atoms = 7;
  EXPECT_EQ(validate(job).size(), 1u);
  SimulateJob simulate;
  simulate.atoms = 0;
  EXPECT_FALSE(validate(simulate).empty());
}

TEST(JobValidationTest, CollectsEveryViolation) {
  ScfJob job;
  job.atoms = 3;
  job.ecut_ry = -1.0;
  job.scf.mixing = 2.0;
  job.scf.tolerance = 0.0;
  job.scf.max_iterations = 0;
  EXPECT_EQ(validate(job).size(), 5u);
}

TEST(JobValidationTest, BandStructureWindow) {
  BandStructureJob job;
  job.valence_bands = 8;  // == bands: no conduction band left
  EXPECT_FALSE(validate(job).empty());
  job.valence_bands = 4;
  job.segments = 0;
  EXPECT_FALSE(validate(job).empty());
  // Mirrors find_gap's valence >= 1 precondition (the size_t underflow
  // regression): zero valence bands must be rejected up front.
  job.segments = 2;
  job.valence_bands = 0;
  EXPECT_FALSE(validate(job).empty());
}

TEST(JobValidationTest, BandStructureCrystalAndSampling) {
  // Monkhorst-Pack on a supercell is valid.
  BandStructureJob job;
  job.atoms = 8;
  job.sampling = BandStructureJob::Sampling::kMonkhorstPack;
  job.mp_grid[0] = job.mp_grid[1] = job.mp_grid[2] = 2;
  job.bands = 20;
  job.valence_bands = 16;
  EXPECT_TRUE(validate(job).empty());
  // The FCC path is primitive-cell-only.
  job.sampling = BandStructureJob::Sampling::kPath;
  EXPECT_FALSE(validate(job).empty());
  // Supercell sizes follow the usual multiple-of-8 rule.
  job.sampling = BandStructureJob::Sampling::kMonkhorstPack;
  job.atoms = 12;
  EXPECT_FALSE(validate(job).empty());
  // Grid divisions must be positive and the point count bounded.
  job.atoms = 8;
  job.mp_grid[1] = 0;
  EXPECT_FALSE(validate(job).empty());
  job.mp_grid[0] = job.mp_grid[1] = job.mp_grid[2] = 1u << 10;
  EXPECT_FALSE(validate(job).empty());
  // A product that wraps a 64-bit accumulator (2^22 * 2^21 * 2^21 =
  // 2^64 -> 0) must still be rejected, not validate via overflow.
  job.mp_grid[0] = 1u << 22;
  job.mp_grid[1] = 1u << 21;
  job.mp_grid[2] = 1u << 21;
  EXPECT_FALSE(validate(job).empty());
}

TEST(JobValidationTest, PlanProfileOverridePairs) {
  PlanJob job;
  job.profile_override = {runtime::DeviceProfile::table3_cpu()};
  EXPECT_FALSE(validate(job).empty());
  job.profile_override.push_back(runtime::DeviceProfile::table3_ndp());
  EXPECT_TRUE(validate(job).empty());
  // The cost model divides by the link rate: default-constructed
  // profiles (0 GB/s) and NaN rates are refused before they run.
  job.profile_override[1].link_gbps =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(validate(job).empty());
  job.profile_override = {runtime::DeviceProfile{},
                          runtime::DeviceProfile{}};
  EXPECT_EQ(validate(job).size(), 2u);
}

TEST(EngineTest, InvalidRequestRejectedNotThrown) {
  Engine engine;
  LrtddftJob job;
  job.atoms = 12;  // not a multiple of 8
  job.config.conduction_window = 0;
  const JobResult result = engine.run(job);
  EXPECT_EQ(result.status, JobStatus::kInvalid);
  EXPECT_EQ(result.error, ErrorKind::kInvalidRequest);
  EXPECT_EQ(result.error_details.size(), 2u);
  EXPECT_FALSE(result.lrtddft.has_value());
}

TEST(EngineTest, PhysicsFailureIsTaxonomised) {
  Engine engine;
  ScfJob job;  // valid request, but the band count is physically absurd:
  job.scf.bands = 1;  // below the valence count -> solver rejects
  const JobResult result = engine.run(job);
  EXPECT_EQ(result.status, JobStatus::kFailed);
  EXPECT_EQ(result.error, ErrorKind::kPhysics);
  EXPECT_FALSE(result.error_message.empty());
}

TEST(EngineTest, CappedScfJobSaysItDidNotConverge) {
  // A loop stopped at max_iterations still answers (status ok) but
  // carries the degradation tag scf:not_converged, through the JSON round
  // trip too; the default job converges and carries no tag.
  Engine engine;
  const JobResult converged = engine.run(ScfJob{});
  ASSERT_TRUE(converged.ok()) << converged.error_message;
  ASSERT_TRUE(converged.scf.has_value());
  EXPECT_TRUE(converged.scf->converged);
  EXPECT_TRUE(converged.degraded.empty());

  ScfJob capped;
  capped.scf.max_iterations = 3;
  const JobResult result = engine.run(capped);
  ASSERT_TRUE(result.ok()) << result.error_message;
  ASSERT_TRUE(result.scf.has_value());
  EXPECT_FALSE(result.scf->converged);
  EXPECT_EQ(result.degraded, std::vector<std::string>{"scf:not_converged"});
  const JobResult rebuilt =
      JobResult::from_json(Json::parse(result.to_json().dump()));
  EXPECT_EQ(rebuilt.degraded, result.degraded);
}

// ------------------------------------------------------- JSON round trip

/// Fast sampling so simulation-backed tests stay quick.
EngineConfig fast_config(std::size_t dispatch_threads = 2) {
  EngineConfig config;
  config.dispatch_threads = dispatch_threads;
  config.system.sampled_ops_per_kernel = 20000;
  config.system.min_ops_per_core = 200;
  return config;
}

void expect_round_trip(const JobResult& result) {
  const std::string dumped = result.to_json().dump(2);
  const JobResult rebuilt = JobResult::from_json(Json::parse(dumped));
  EXPECT_EQ(rebuilt.to_json().dump(2), dumped);
  EXPECT_EQ(rebuilt.status, result.status);
  EXPECT_EQ(rebuilt.engine.job_id, result.engine.job_id);
}

TEST(JobResultJsonTest, AllJobKindsRoundTrip) {
  Engine engine(fast_config());

  ScfJob scf;
  scf.scf.max_iterations = 3;  // no need to converge for serialization
  scf.scf.tolerance = 1e-2;
  expect_round_trip(engine.run(scf));

  BandStructureJob bands;
  bands.segments = 2;
  expect_round_trip(engine.run(bands));

  LrtddftJob lrtddft;
  lrtddft.oscillator_strengths = true;
  expect_round_trip(engine.run(lrtddft));

  SimulateJob simulate;
  simulate.atoms = 16;
  expect_round_trip(engine.run(simulate));

  PlanJob plan;
  expect_round_trip(engine.run(plan));
}

TEST(BandStructureJobTest, MonkhorstPackPrimitiveMatchesDirectSolve) {
  // The generalized job on the primitive cell must reproduce the direct
  // dft-layer computation exactly (same crystal, grid and window). The
  // engine folds the grid to its time-reversal half before solving, so
  // the reference is the folded grid: 4 representatives of the 2x2x2
  // grid's 8 points, weights doubled, same total weight and summary.
  Engine engine(fast_config());
  BandStructureJob job;
  job.sampling = BandStructureJob::Sampling::kMonkhorstPack;
  job.mp_grid[0] = job.mp_grid[1] = job.mp_grid[2] = 2;
  job.bands = 6;
  job.valence_bands = 4;
  const JobResult result = engine.run(job);
  ASSERT_TRUE(result.ok()) << result.error_message;
  ASSERT_TRUE(result.band_structure.has_value());
  const BandStructurePayload& payload = *result.band_structure;
  EXPECT_EQ(payload.atoms, 2u);
  EXPECT_EQ(payload.sampling, "monkhorst_pack");
  ASSERT_EQ(payload.path.size(), 4u);
  EXPECT_NEAR(payload.weight_sum, 1.0, 1e-12);

  const dft::Crystal primitive = dft::silicon_primitive();
  const dft::PlaneWaveBasis basis(primitive, job.ecut_ry * 0.5);
  EXPECT_EQ(payload.basis_size, basis.size());
  const auto grid =
      dft::fold_time_reversal(dft::monkhorst_pack(primitive, 2, 2, 2));
  ASSERT_EQ(grid.size(), 4u);
  const auto structure = dft::band_structure(basis, grid, job.bands);
  const dft::GapSummary gap = dft::find_gap(structure, job.valence_bands);
  EXPECT_EQ(payload.vbm_ha, gap.vbm_ha);
  EXPECT_EQ(payload.cbm_ha, gap.cbm_ha);
  EXPECT_EQ(payload.indirect_gap_ev, gap.indirect_gap_ev());
  EXPECT_EQ(payload.band_energy_ha, gap.band_energy_ha);
  for (std::size_t i = 0; i < payload.path.size(); ++i) {
    EXPECT_EQ(payload.path[i].weight, grid[i].weight);
    ASSERT_EQ(payload.path[i].energies_ha.size(),
              structure[i].energies_ha.size());
    for (std::size_t b = 0; b < job.bands; ++b) {
      EXPECT_EQ(payload.path[i].energies_ha[b],
                structure[i].energies_ha[b]);
    }
  }
}

TEST(BandStructureJobTest, SupercellMonkhorstPackThroughSubmit) {
  // The acceptance path: a Monkhorst-Pack job on a non-primitive crystal
  // enters through Engine::submit(), round-trips its JSON result
  // losslessly, and reproduces the primitive-cell gap summary when
  // configured equivalently (the Gamma-only grid of the 8-atom
  // conventional cell folds the primitive {Gamma, X_x, X_y, X_z} set).
  Engine engine(fast_config());
  BandStructureJob job;
  job.atoms = 8;
  job.sampling = BandStructureJob::Sampling::kMonkhorstPack;
  job.mp_grid[0] = job.mp_grid[1] = job.mp_grid[2] = 1;
  job.bands = 20;
  job.valence_bands = 16;
  JobHandle handle = engine.submit(job);
  const JobResult& result = handle.wait();
  ASSERT_TRUE(result.ok()) << result.error_message;
  ASSERT_TRUE(result.band_structure.has_value());
  const BandStructurePayload& payload = *result.band_structure;
  EXPECT_EQ(payload.atoms, 8u);
  EXPECT_EQ(payload.sampling, "monkhorst_pack");
  ASSERT_EQ(payload.path.size(), 1u);
  EXPECT_NEAR(payload.weight_sum, 1.0, 1e-12);
  // The 1x1x1 MP grid is the (unlabelled) zone centre, so the direct
  // gap is reported off the k == 0 point.
  EXPECT_GT(payload.direct_gap_gamma_ev, 0.0);

  expect_round_trip(result);

  // Primitive-cell reference over the folded cosets.
  const dft::Crystal primitive = dft::silicon_primitive();
  const dft::PlaneWaveBasis basis(primitive, job.ecut_ry * 0.5);
  const double unit = 2.0 * std::numbers::pi / dft::kSiliconLatticeBohr;
  std::vector<dft::KPoint> cosets(4);
  cosets[1].k = {unit, 0.0, 0.0};
  cosets[2].k = {0.0, unit, 0.0};
  cosets[3].k = {0.0, 0.0, unit};
  const auto solved = dft::band_structure(basis, cosets, 6);
  const dft::GapSummary reference = dft::find_gap(solved, 4);
  EXPECT_NEAR(payload.vbm_ha, reference.vbm_ha, 1e-10);
  EXPECT_NEAR(payload.cbm_ha, reference.cbm_ha, 1e-3);
  EXPECT_NEAR(payload.indirect_gap_ev, reference.indirect_gap_ev(), 0.03);
  // Folded occupied band energy = sum of the cosets' (equal-weight)
  // occupied energies; both summaries normalise by their weight sums.
  EXPECT_NEAR(payload.band_energy_ha / 4.0, reference.band_energy_ha,
              2e-3);
}

TEST(BandStructureJobTest, PathJobKeepsPrimitiveDefaults) {
  // The generalized job with default crystal/sampling reproduces the old
  // hard-wired primitive path behaviour, weights included.
  Engine engine(fast_config());
  BandStructureJob job;
  job.segments = 2;
  const JobResult result = engine.run(job);
  ASSERT_TRUE(result.ok()) << result.error_message;
  const BandStructurePayload& payload = *result.band_structure;
  EXPECT_EQ(payload.atoms, 2u);
  EXPECT_EQ(payload.sampling, "path");
  EXPECT_EQ(payload.path.size(), 4u * job.segments + 1);
  for (const BandsAtKPayload& point : payload.path) {
    EXPECT_EQ(point.weight, 1.0);
  }
  EXPECT_NEAR(payload.weight_sum,
              static_cast<double>(payload.path.size()), 1e-12);
  EXPECT_EQ(payload.path.front().label, "L");
  EXPECT_EQ(payload.path.back().label, "Gamma");
}

TEST(JobResultJsonTest, RejectionRoundTrips) {
  Engine engine;
  SimulateJob job;
  job.atoms = 5;
  expect_round_trip(engine.run(job));
}

TEST(JobResultJsonTest, SchemaMismatchThrows) {
  Json json = Json::object();
  json.set("schema", "something.else.v9");
  EXPECT_THROW(JobResult::from_json(json), NdftError);
}

// ------------------------------------------------------ wire-format goldens
//
// One document per schema under tests/data/wire/, written from synthetic,
// fully populated structs (not physics output, so solver changes never
// re-pin them). The machine document is the shipped Table-III example.

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Decodes a document through its public reader and returns the writer's
/// form of the decoded value (the goldens' layout: dump(2) plus newline).
/// Throws NdftError when the reader refuses the document.
using Redump = std::string (*)(const std::string& text);

std::string pretty(const Json& json) { return json.dump(2) + "\n"; }

std::string redump_request(const std::string& text) {
  return pretty(job_request_to_json(job_request_from_json(Json::parse(text))));
}

std::string redump_result(const std::string& text) {
  return pretty(JobResult::from_json(Json::parse(text)).to_json());
}

std::string redump_trace(const std::string& text) {
  return pretty(KernelTrace::from_json(Json::parse(text)).to_json());
}

std::string redump_profile(const std::string& text) {
  return pretty(
      runtime::DeviceProfile::from_json(Json::parse(text)).to_json());
}

std::string redump_machine(const std::string& text) {
  return pretty(ndp::NdpSystemConfig::from_json(Json::parse(text)).to_json());
}

/// The store reads any malformed file as empty; that counts as a refusal.
/// Otherwise re-recording the first entry rewrites the whole file.
std::string redump_store(const std::string& text) {
  const std::string path = testing::TempDir() + "wire_profile_store.json";
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }
  runtime::ProfileStore store(path);
  if (store.size() == 0) {
    std::remove(path.c_str());
    throw NdftError("profile store read as empty");
  }
  const Json doc = Json::parse(text);
  const Json& first = doc.at("entries")[0];
  const runtime::ProfileKey key{first.at("git_sha").as_string(),
                                first.at("host").as_string(),
                                first.at("pool_threads").as_uint()};
  store.put_cpu(key, store.get_cpu(key).value());
  const std::string rewritten = read_file(path);
  std::remove(path.c_str());
  return rewritten;
}

struct WireGolden {
  const char* path;  ///< relative to the source tree
  Redump redump;
};

const WireGolden kWireGoldens[] = {
    {"tests/data/wire/request_scf.json", redump_request},
    {"tests/data/wire/request_band_structure.json", redump_request},
    {"tests/data/wire/request_lrtddft.json", redump_request},
    {"tests/data/wire/request_simulate.json", redump_request},
    {"tests/data/wire/request_plan.json", redump_request},
    {"tests/data/wire/request_codesign.json", redump_request},
    {"tests/data/wire/result_scf.json", redump_result},
    {"tests/data/wire/result_band_structure.json", redump_result},
    {"tests/data/wire/result_lrtddft.json", redump_result},
    {"tests/data/wire/result_simulate.json", redump_result},
    {"tests/data/wire/result_plan.json", redump_result},
    {"tests/data/wire/result_codesign.json", redump_result},
    {"tests/data/wire/kernel_trace.json", redump_trace},
    {"tests/data/wire/device_profile.json", redump_profile},
    {"tests/data/wire/profile_store.json", redump_store},
    {"examples/machines/table3.json", redump_machine},
};

std::string golden_text(const WireGolden& golden) {
  return read_file(std::string(NDFT_SOURCE_DIR) + "/" + golden.path);
}

TEST(WireGoldenTest, EveryGoldenRedumpsByteForByte) {
  for (const WireGolden& golden : kWireGoldens) {
    const std::string text = golden_text(golden);
    EXPECT_EQ(pretty(Json::parse(text)), text) << golden.path;
    EXPECT_EQ(golden.redump(text), text) << golden.path;
  }
}

/// Value equality, except that an integer literal equals the same number
/// written as a double (double members accept integer literals and
/// re-emit them with a fraction).
bool same_value(const Json& a, const Json& b) {
  if (a.is_number() && b.is_number()) {
    if (a.type() == b.type() && a.type() != Json::Type::kDouble) {
      return a.dump() == b.dump();
    }
    return a.as_double() == b.as_double();
  }
  if (a.type() != b.type()) return false;
  if (a.is_array()) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!same_value(a[i], b[i])) return false;
    }
    return true;
  }
  if (a.is_object()) {
    const auto& lhs = a.members();
    const auto& rhs = b.members();
    if (lhs.size() != rhs.size()) return false;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      if (lhs[i].first != rhs[i].first ||
          !same_value(lhs[i].second, rhs[i].second)) {
        return false;
      }
    }
    return true;
  }
  return a.dump() == b.dump();
}

TEST(WireGoldenTest, CorruptionSweepRejectsOrRoundTrips) {
  // Fixed-seed truncations and byte corruptions of every golden: each
  // mutation is refused with NdftError, or it decodes to a value whose
  // re-encoding is the mutated document itself (nothing dropped, clamped
  // or defaulted on the way in).
  std::mt19937 rng(20261017u);
  for (const WireGolden& golden : kWireGoldens) {
    const std::string text = golden_text(golden);
    int refused = 0;
    for (int i = 0; i < 160; ++i) {
      std::string mutated = text;
      const std::size_t at = rng() % text.size();
      if (i % 4 == 0) {
        mutated.resize(at);
      } else {
        mutated[at] = static_cast<char>(rng() % 256);
      }
      std::string redumped;
      try {
        redumped = golden.redump(mutated);
      } catch (const NdftError&) {
        ++refused;
        continue;
      }
      EXPECT_TRUE(same_value(Json::parse(redumped), Json::parse(mutated)))
          << golden.path << " accepted a mutation at byte " << at
          << " that does not re-encode to itself:\n"
          << mutated;
    }
    EXPECT_GT(refused, 0) << golden.path;
  }
}

/// `doc` with the first member (depth-first) whose value satisfies `pick`
/// replaced by `edit(value)`.
Json edit_first(const Json& doc, bool (*pick)(const Json&),
                Json (*edit)(const Json&), bool& done) {
  if (doc.is_object()) {
    Json out = Json::object();
    for (const auto& [name, member] : doc.members()) {
      const bool hit = !done && pick(member);
      done = done || hit;
      out.set(name, hit ? edit(member) : edit_first(member, pick, edit, done));
    }
    return out;
  }
  if (doc.is_array()) {
    Json out = Json::array();
    for (const Json& item : doc.items()) {
      out.push_back(edit_first(item, pick, edit, done));
    }
    return out;
  }
  return doc;
}

TEST(WireStrictnessTest, UnknownMemberWrongTypeAndRangeThrowEverywhere) {
  using Edit = Json (*)(const Json&);
  const auto is_uint = [](const Json& j) {
    return j.type() == Json::Type::kUint;
  };
  const auto is_object = [](const Json& j) { return j.is_object(); };
  const std::pair<const char*, Edit> uint_edits[] = {
      {"wrong type", [](const Json&) { return Json("7"); }},
      {"negative integer", [](const Json&) { return Json(-1); }},
      {"fractional integer", [](const Json&) { return Json(2.5); }},
  };
  const Edit add_surplus = [](const Json& j) {
    Json out = j;
    out.set("surplus", 1);
    return out;
  };
  for (const WireGolden& golden : kWireGoldens) {
    const Json doc = Json::parse(golden_text(golden));
    std::vector<std::pair<const char*, Json>> broken;
    broken.emplace_back("unknown member", add_surplus(doc));
    bool done = false;
    const Json nested = edit_first(doc, is_object, add_surplus, done);
    if (done) broken.emplace_back("nested unknown member", nested);
    for (const auto& [what, edit] : uint_edits) {
      done = false;
      broken.emplace_back(what, edit_first(doc, is_uint, edit, done));
      ASSERT_TRUE(done) << golden.path << " has no integer member";
    }
    for (const auto& [what, document] : broken) {
      EXPECT_THROW(golden.redump(pretty(document)), NdftError)
          << golden.path << ": " << what;
    }
  }
}

TEST(WireStrictnessTest, RequestWithKeepEigenvectorsIsRefused) {
  // LrTddftConfig no longer has keep_eigenvectors (every solve returns its
  // Casida vectors); a request that still sends it is refused like any
  // other unknown member, not silently accepted.
  const Json doc = Json::parse(
      read_file(std::string(NDFT_SOURCE_DIR) +
                "/tests/data/wire/request_lrtddft.json"));
  Json config = doc.at("job").at("config");
  config.set("keep_eigenvectors", Json(true));
  Json job = doc.at("job");
  job.set("config", std::move(config));
  Json request = doc;
  request.set("job", std::move(job));
  EXPECT_NO_THROW(job_request_from_json(doc));
  EXPECT_THROW(job_request_from_json(request), NdftError);
}

TEST(WireStrictnessTest, ResultWithLrtddftCountsIsRefused) {
  // The LR-TDDFT payload no longer has per-class counts (the job's trace
  // carries each kernel's work); a result that still sends them is
  // refused like any other unknown member, not silently accepted.
  const Json doc = Json::parse(
      read_file(std::string(NDFT_SOURCE_DIR) +
                "/tests/data/wire/result_lrtddft.json"));
  Json count = Json::object();
  count.set("class", Json("FFT"));
  count.set("flops", Json(100));
  count.set("bytes", Json(200));
  Json counts = Json::array();
  counts.push_back(std::move(count));
  Json payload = doc.at("payload");
  payload.set("counts", std::move(counts));
  Json result = doc;
  result.set("payload", std::move(payload));
  EXPECT_NO_THROW(JobResult::from_json(doc));
  EXPECT_THROW(JobResult::from_json(result), NdftError);
}

// ------------------------------------------------- async queue semantics

TEST(EngineTest, ManualDrainExecutesQueuedJobs) {
  Engine engine(fast_config(/*dispatch_threads=*/0));
  JobHandle handle = engine.submit(PlanJob{});
  EXPECT_EQ(handle.status(), JobStatus::kQueued);
  engine.drain();
  EXPECT_EQ(handle.status(), JobStatus::kOk);
  EXPECT_TRUE(handle.wait().ok());
  EXPECT_EQ(engine.jobs_completed(), 1u);
}

TEST(EngineTest, CancelWhileQueued) {
  Engine engine(fast_config(/*dispatch_threads=*/0));
  JobHandle first = engine.submit(PlanJob{});
  JobHandle second = engine.submit(PlanJob{});
  EXPECT_TRUE(second.cancel());
  EXPECT_FALSE(second.cancel());  // already terminal
  engine.drain();
  EXPECT_EQ(first.status(), JobStatus::kOk);
  EXPECT_EQ(second.status(), JobStatus::kCancelled);
  const JobResult& cancelled = second.wait();
  EXPECT_EQ(cancelled.error, ErrorKind::kCancelled);
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(engine.jobs_cancelled(), 1u);
}

TEST(EngineTest, DestructionCancelsQueuedJobs) {
  JobHandle orphan;
  {
    Engine engine(fast_config(/*dispatch_threads=*/0));
    orphan = engine.submit(PlanJob{});
  }
  EXPECT_EQ(orphan.status(), JobStatus::kCancelled);
}

TEST(EngineTest, JobIdsAreUniqueAndMonotonic) {
  Engine engine(fast_config(/*dispatch_threads=*/0));
  const JobHandle a = engine.submit(PlanJob{});
  const JobHandle b = engine.submit(PlanJob{});
  EXPECT_LT(a.id(), b.id());
  engine.drain();
}

// ------------------------------------------------ cost-aware queue order

TEST(EngineQueueTest, DrainsCheapestEstimateFirst) {
  // Submission order is heaviest-first; the queue must reorder so the
  // near-free plan drains first and the large simulation last
  // (exec_seq records the start order of the single-threaded drain).
  Engine engine(fast_config(/*dispatch_threads=*/0));
  SimulateJob heavy;
  heavy.atoms = 128;
  SimulateJob light;
  light.atoms = 16;
  PlanJob plan;
  JobHandle h_heavy = engine.submit(heavy);
  JobHandle h_light = engine.submit(light);
  JobHandle h_plan = engine.submit(plan);
  engine.drain();
  ASSERT_TRUE(h_heavy.wait().ok());
  ASSERT_TRUE(h_light.wait().ok());
  ASSERT_TRUE(h_plan.wait().ok());
  EXPECT_LT(h_plan.wait().engine.exec_seq, h_light.wait().engine.exec_seq);
  EXPECT_LT(h_light.wait().engine.exec_seq, h_heavy.wait().engine.exec_seq);
}

TEST(EngineQueueTest, EqualEstimatesKeepFifoOrder) {
  Engine engine(fast_config(/*dispatch_threads=*/0));
  JobHandle first = engine.submit(PlanJob{});
  JobHandle second = engine.submit(PlanJob{});
  JobHandle third = engine.submit(PlanJob{});
  engine.drain();
  EXPECT_LT(first.wait().engine.exec_seq, second.wait().engine.exec_seq);
  EXPECT_LT(second.wait().engine.exec_seq, third.wait().engine.exec_seq);
}

TEST(EngineQueueTest, AgedJobsBypassCostOrder) {
  // The aging escape hatch: with a zero starvation limit the oldest
  // pending job always runs next, degenerating to FIFO even when later
  // submissions are cheaper — so heavy jobs cannot be starved by a
  // stream of cheap ones.
  EngineConfig config = fast_config(/*dispatch_threads=*/0);
  config.starvation_limit_ms = 0.0;
  Engine engine(config);
  SimulateJob heavy;
  heavy.atoms = 64;
  JobHandle h_heavy = engine.submit(heavy);
  JobHandle h_cheap = engine.submit(PlanJob{});
  engine.drain();
  EXPECT_LT(h_heavy.wait().engine.exec_seq,
            h_cheap.wait().engine.exec_seq);
}

TEST(EngineQueueTest, CheapBandJobOutranksLargeScfJob) {
  // Regression for the two-stage syevd_cost/syevd_partial_cost rewrite:
  // the queue prices jobs through those estimates, and a small band
  // solve must still drain ahead of a large multi-iteration SCF job
  // submitted first.
  Engine engine(fast_config(/*dispatch_threads=*/0));
  ScfJob scf;
  scf.atoms = 64;
  scf.scf.max_iterations = 2;
  scf.scf.tolerance = 1e-1;
  BandStructureJob band;
  band.segments = 1;
  band.bands = 6;
  JobHandle h_scf = engine.submit(scf);
  JobHandle h_band = engine.submit(band);
  engine.drain();
  ASSERT_TRUE(h_scf.wait().ok());
  ASSERT_TRUE(h_band.wait().ok());
  EXPECT_LT(h_band.wait().engine.exec_seq, h_scf.wait().engine.exec_seq);
}

// ------------------------------------------------- stage timing telemetry

TEST(JobTimingsTest, EigensolverStageSplitIsAdditiveAndSerialized) {
  // A job whose solves return eigenvectors must report the
  // reduce/tridiag/backtransform split: each bucket non-negative, their
  // sum bounded by the linalg total (they are disjoint sub-spans of it),
  // and the fields must survive the v1 JSON round trip.
  Engine engine(fast_config(/*dispatch_threads=*/0));
  ScfJob scf;
  scf.scf.max_iterations = 2;
  scf.scf.tolerance = 1e-1;
  const JobResult result = engine.run(scf);
  ASSERT_TRUE(result.ok());
  const JobTimings& t = result.timings;
  EXPECT_GT(t.reduce_ms, 0.0);
  EXPECT_GE(t.tridiag_ms, 0.0);
  EXPECT_GT(t.backtransform_ms, 0.0);
  EXPECT_LE(t.reduce_ms + t.tridiag_ms + t.backtransform_ms,
            t.linalg_ms + 1e-9);

  const JobResult rebuilt =
      JobResult::from_json(Json::parse(result.to_json().dump()));
  EXPECT_EQ(rebuilt.timings.reduce_ms, t.reduce_ms);
  EXPECT_EQ(rebuilt.timings.tridiag_ms, t.tridiag_ms);
  EXPECT_EQ(rebuilt.timings.backtransform_ms, t.backtransform_ms);
}

TEST(JobTimingsTest, BandJobSolvesForEnergiesOnly) {
  // A band payload holds energies only, so the default job's window
  // solves stop after the bisection: no back-transform time at all, and
  // the energies are bitwise those of per-k solves with eigenvectors.
  Engine engine(fast_config(/*dispatch_threads=*/0));
  const BandStructureJob job;
  const JobResult result = engine.run(job);
  ASSERT_TRUE(result.ok()) << result.error_message;
  const JobTimings& t = result.timings;
  EXPECT_EQ(t.backtransform_ms, 0.0);
  EXPECT_GT(t.reduce_ms, 0.0);
  EXPECT_GT(t.tridiag_ms, 0.0);
  EXPECT_LE(t.reduce_ms + t.tridiag_ms, t.linalg_ms + 1e-9);

  const dft::Crystal primitive = dft::silicon_primitive();
  const dft::PlaneWaveBasis basis(primitive, job.ecut_ry * dft::kHaPerRy);
  ASSERT_TRUE(result.band_structure.has_value());
  const BandStructurePayload& payload = *result.band_structure;
  ASSERT_EQ(payload.path.size(), 41u);
  for (const BandsAtKPayload& point : payload.path) {
    const dft::RealMatrix h = dft::epm_hamiltonian(
        basis, dft::Vec3{point.k[0], point.k[1], point.k[2]}, "reference");
    EXPECT_EQ(point.energies_ha,
              dft::syevd_partial(h, job.bands).eigenvalues);
  }
}

TEST(JobTimingsTest, BandLinalgTimeDoesNotShrinkWithPoolWidth) {
  // linalg_ms sums the job's dense-algebra time over every thread that
  // did it: k-points a band job hands to pool workers count as well, so
  // a wider pool cannot make the tally smaller than the serial one.
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs 4 hardware threads";
  }
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original = pool.threads();
  Engine engine(fast_config(/*dispatch_threads=*/0));
  const BandStructureJob job;  // the default 41-point path
  double serial_ms = std::numeric_limits<double>::infinity();
  double wide_ms = serial_ms;
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      pool.resize(threads);
      const JobResult result = engine.run(job);
      ASSERT_TRUE(result.ok()) << result.error_message;
      double& best = threads == 1 ? serial_ms : wide_ms;
      best = std::min(best, result.timings.linalg_ms);
    }
  }
  pool.resize(original);
  EXPECT_GE(wide_ms, 0.75 * serial_ms)
      << "pool width 4: " << wide_ms << " ms, width 1: " << serial_ms
      << " ms";
}

TEST(JobTimingsTest, ScfLinalgTimeCountsTheWorkersBlock) {
  // At pool width 2 the SCF's two parity blocks are solved one per
  // thread; the block a pool worker solves is credited to the job, so
  // linalg_ms does not halve against the serial run.
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs 2 hardware threads";
  }
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original = pool.threads();
  Engine engine(fast_config(/*dispatch_threads=*/0));
  ScfJob job;
  job.scf.max_iterations = 4;
  double serial_ms = std::numeric_limits<double>::infinity();
  double wide_ms = serial_ms;
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      pool.resize(threads);
      const JobResult result = engine.run(job);
      ASSERT_TRUE(result.ok()) << result.error_message;
      double& best = threads == 1 ? serial_ms : wide_ms;
      best = std::min(best, result.timings.linalg_ms);
    }
  }
  pool.resize(original);
  EXPECT_GE(wide_ms, 0.75 * serial_ms)
      << "pool width 2: " << wide_ms << " ms, width 1: " << serial_ms
      << " ms";
}

// ------------------------------------------------ one LR-TDDFT pass

/// Everything a trace event records except its measured time.
using EventShape =
    std::tuple<KernelClass, std::string, std::string, Flops, Bytes,
               std::uint64_t, std::uint64_t, std::uint64_t>;

std::vector<EventShape> event_shapes(const KernelTrace& trace) {
  std::vector<EventShape> shapes;
  for (const TraceEvent& e : trace.events) {
    shapes.emplace_back(e.cls, e.name, e.stage, e.flops, e.bytes, e.dims[0],
                        e.dims[1], e.dims[2]);
  }
  return shapes;
}

TEST(LrtddftJobTest, OscillatorStrengthsReuseTheCasidaSolve) {
  // The optical lines are read off the Casida eigenvectors of the job's
  // one LR-TDDFT solve, so asking for them traces the same kernels, event
  // for event, as a job without them.
  Engine engine(fast_config(/*dispatch_threads=*/0));
  LrtddftJob job;
  job.record_trace = true;
  const JobResult plain = engine.run(job);
  job.oscillator_strengths = true;
  const JobResult with_lines = engine.run(job);
  ASSERT_TRUE(plain.ok()) << plain.error_message;
  ASSERT_TRUE(with_lines.ok()) << with_lines.error_message;
  ASSERT_TRUE(plain.trace.has_value());
  ASSERT_TRUE(with_lines.trace.has_value());
  EXPECT_FALSE(plain.trace->events.empty());
  ASSERT_EQ(with_lines.trace->events.size(), plain.trace->events.size());
  EXPECT_EQ(event_shapes(*with_lines.trace), event_shapes(*plain.trace));

  ASSERT_TRUE(plain.lrtddft.has_value());
  ASSERT_TRUE(with_lines.lrtddft.has_value());
  EXPECT_TRUE(plain.lrtddft->lines.empty());
  EXPECT_EQ(with_lines.lrtddft->excitations_ha,
            plain.lrtddft->excitations_ha);
  EXPECT_EQ(with_lines.lrtddft->lines.size(),
            with_lines.lrtddft->excitations_ha.size());
}

TEST(LrtddftJobTest, TraceCarriesEachKernelClassWork) {
  // The trace is the one record of the job's kernel work. The default
  // job (Si_8, 16 x 4 window, 64 pairs) sums to these per-class totals
  // over its lrtddft stage, and its nonlocal projector application is
  // charged two complex passes (8 flops, 16 bytes per coefficient each)
  // over 32 projectors x 179 plane waves.
  Engine engine(fast_config(/*dispatch_threads=*/0));
  LrtddftJob job;
  job.record_trace = true;
  const JobResult result = engine.run(job);
  ASSERT_TRUE(result.ok()) << result.error_message;
  ASSERT_TRUE(result.trace.has_value());
  using Work = std::pair<Flops, Bytes>;
  std::map<KernelClass, Work> lrtddft;
  std::vector<Work> nonlocal;
  for (const TraceEvent& e : result.trace->events) {
    if (e.stage == "lrtddft") {
      lrtddft[e.cls].first += e.flops;
      lrtddft[e.cls].second += e.bytes;
    }
    if (e.name == "nonlocal") nonlocal.emplace_back(e.flops, e.bytes);
  }
  const std::map<KernelClass, Work> expected = {
      {KernelClass::kFft, {1935360, 2752512}},
      {KernelClass::kFaceSplit, {327680, 3670016}},
      {KernelClass::kGemm, {33554432, 2359296}},
      {KernelClass::kSyevd, {24991061, 1441792}},
      {KernelClass::kOther, {24576, 196608}},
  };
  EXPECT_EQ(lrtddft, expected);
  EXPECT_EQ(nonlocal, (std::vector<Work>{{16u * 32 * 179, 2u * 32 * 179 * 16}}));
}

// --------------------------------------------- concurrency determinism

TEST(EngineStressTest, ConcurrentSimulationsMatchSerialBitwise) {
  // Serial reference: one job at a time through run().
  Engine serial(fast_config(/*dispatch_threads=*/0));
  // Concurrent: 8 dispatchers draining 16 jobs from one queue, all
  // sharing one NdftSystem template and the process thread pool.
  Engine concurrent(fast_config(/*dispatch_threads=*/8));

  std::vector<JobRequest> requests;
  for (int copy = 0; copy < 4; ++copy) {
    for (const core::ExecMode mode :
         {core::ExecMode::kCpuBaseline, core::ExecMode::kGpuBaseline,
          core::ExecMode::kNdpOnly, core::ExecMode::kNdft}) {
      SimulateJob job;
      job.atoms = 16;
      job.mode = mode;
      requests.emplace_back(job);
    }
  }

  std::vector<std::string> expected;
  for (const JobRequest& request : requests) {
    const JobResult result = serial.run(request);
    ASSERT_TRUE(result.ok()) << result.error_message;
    expected.push_back(result.to_json().at("payload").dump());
  }

  std::vector<JobHandle> handles = concurrent.submit_batch(requests);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const JobResult& result = handles[i].wait();
    ASSERT_TRUE(result.ok()) << result.error_message;
    // The payload (every kernel time, energy, byte counter) must be
    // bitwise identical to the serial run: payload JSON prints doubles
    // with %.17g, so string equality is bit equality.
    EXPECT_EQ(result.to_json().at("payload").dump(), expected[i])
        << "job " << i << " diverged under concurrency";
  }
  EXPECT_EQ(concurrent.jobs_completed(), requests.size());
}

TEST(EngineDeterminismTest, Si8PayloadsAreBitwiseAcrossPoolWidths) {
  // The default Si_8 SCF job and the LR-TDDFT job with optical lines:
  // every kernel under them (FFT batches, GEMM column groups, the window
  // solver, the Hamiltonian rows) splits work across the pool, and the
  // payload bytes must not depend on how many threads it has.
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original = pool.threads();
  LrtddftJob lrtddft;
  lrtddft.oscillator_strengths = true;
  const std::vector<JobRequest> requests = {ScfJob{}, lrtddft};
  std::vector<std::string> expected;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    pool.resize(threads);
    Engine engine;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const JobResult result = engine.run(requests[i]);
      ASSERT_TRUE(result.ok()) << result.error_message;
      const std::string payload = result.to_json().at("payload").dump();
      if (threads == 1) {
        expected.push_back(payload);
      } else {
        EXPECT_EQ(payload, expected[i])
            << job_kind(requests[i]) << " payload moved at " << threads
            << " threads";
      }
    }
  }
  pool.resize(original);
}

TEST(EngineStressTest, MixedJobKindsConcurrently) {
  Engine engine(fast_config(/*dispatch_threads=*/4));
  ScfJob scf;
  scf.scf.max_iterations = 2;
  scf.scf.tolerance = 1e-2;
  BandStructureJob bands;
  bands.segments = 2;
  PlanJob plan;
  SimulateJob simulate;
  simulate.atoms = 16;

  std::vector<JobHandle> handles =
      engine.submit_batch({scf, bands, plan, simulate, scf, plan});
  for (JobHandle& handle : handles) {
    EXPECT_TRUE(handle.wait().ok()) << handle.wait().error_message;
  }
  engine.drain();
  EXPECT_EQ(engine.jobs_completed(), 6u);
}

}  // namespace
}  // namespace ndft::api
