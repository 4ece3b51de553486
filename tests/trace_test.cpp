// Tests for the unified kernel trace layer: recorder semantics (program
// order, nesting, regions, stages), JSON round trips, the measured /
// analytic workload agreement for real LR-TDDFT runs, bitwise trace
// determinism across pool widths, and the trace -> Workload conversion.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/kernel_trace.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "dft/basis.hpp"
#include "dft/epm.hpp"
#include "dft/fft.hpp"
#include "dft/lattice.hpp"
#include "dft/linalg.hpp"
#include "dft/lrtddft.hpp"
#include "dft/scf.hpp"
#include "dft/workload.hpp"

namespace ndft::dft {
namespace {

RealMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  RealMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = prng.next_double(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

ComplexMatrix random_hermitian(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  ComplexMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = Complex{prng.next_double(-1.0, 1.0), 0.0};
    for (std::size_t j = i + 1; j < n; ++j) {
      const Complex v{prng.next_double(-1.0, 1.0),
                      prng.next_double(-1.0, 1.0)};
      m(i, j) = v;
      m(j, i) = std::conj(v);
    }
  }
  return m;
}

// ------------------------------------------------------- recorder semantics

TEST(TraceRecorderTest, KernelEntriesEmitInProgramOrder) {
  TraceRecorder recorder;
  {
    TraceScope scope(recorder);
    EXPECT_TRUE(trace_active());
    RealMatrix a = random_symmetric(24, 1);
    RealMatrix b = random_symmetric(24, 2);
    RealMatrix c;
    gemm(a, b, c);
    syevd(a);
    Grid3 grid(8, 8, 8);
    fft3d(grid, FftDirection::kForward);
  }
  EXPECT_FALSE(trace_active());
  const KernelTrace trace = recorder.take();
  ASSERT_EQ(trace.events.size(), 3u);
  EXPECT_EQ(trace.events[0].cls, KernelClass::kGemm);
  EXPECT_EQ(trace.events[0].name, "gemm");
  EXPECT_EQ(trace.events[0].dims[0], 24u);
  EXPECT_EQ(trace.events[0].dims[2], 24u);
  EXPECT_EQ(trace.events[0].flops, 2ull * 24 * 24 * 24);
  EXPECT_GE(trace.events[0].host_ms, 0.0);
  EXPECT_EQ(trace.events[1].cls, KernelClass::kSyevd);
  EXPECT_EQ(trace.events[1].name, "syevd");
  EXPECT_EQ(trace.events[2].cls, KernelClass::kFft);
  EXPECT_EQ(trace.events[2].dims[0], 8u);
  EXPECT_EQ(trace.events[2].flops, fft_flops(512));
}

TEST(TraceRecorderTest, NestedKernelsFoldIntoOutermost) {
  // heev runs syevd (which runs gemm) internally; only the outermost
  // entry may emit.
  TraceRecorder recorder;
  {
    TraceScope scope(recorder);
    heev(random_hermitian(20, 3));
  }
  const KernelTrace trace = recorder.take();
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].name, "heev");
  EXPECT_EQ(trace.events[0].cls, KernelClass::kSyevd);
  // Dims and costs follow the 2n x 2n real embedding the solve runs.
  EXPECT_EQ(trace.events[0].dims[0], 40u);
  EXPECT_EQ(trace.events[0].flops, syevd_cost(40).flops);
}

TEST(TraceRecorderTest, RegionsAggregateAndSuppressInnerKernels) {
  TraceRecorder recorder;
  {
    TraceScope scope(recorder);
    TraceRegion region(KernelClass::kFft, "batch");
    region.add_work(1234, 5678);
    region.set_dims(4, 5, 6);
    region.set_io(10, 20);
    Grid3 grid(8, 8, 8);
    fft3d(grid, FftDirection::kForward);  // suppressed by the region
  }
  const KernelTrace trace = recorder.take();
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].name, "batch");
  EXPECT_EQ(trace.events[0].flops, 1234u);
  EXPECT_EQ(trace.events[0].bytes, 5678u);
  EXPECT_EQ(trace.events[0].dims[1], 5u);
  EXPECT_EQ(trace.events[0].input_bytes, 10u);
  EXPECT_EQ(trace.events[0].output_bytes, 20u);
}

TEST(TraceRecorderTest, StageLabelsAttachAndRestore) {
  TraceRecorder recorder;
  {
    TraceScope scope(recorder);
    RealMatrix a = random_symmetric(16, 4);
    {
      TraceStage stage("alpha");
      syevd(a);
      {
        TraceStage inner("beta");
        syevd(a);
      }
      syevd(a);
    }
    syevd(a);
  }
  const KernelTrace trace = recorder.take();
  ASSERT_EQ(trace.events.size(), 4u);
  EXPECT_EQ(trace.events[0].stage, "alpha");
  EXPECT_EQ(trace.events[1].stage, "beta");
  EXPECT_EQ(trace.events[2].stage, "alpha");
  EXPECT_EQ(trace.events[3].stage, "");
}

TEST(TraceRecorderTest, UntracedThreadRecordsNothing) {
  EXPECT_FALSE(trace_active());
  // All hooks are no-ops without a scope; this must simply not crash and
  // not leak state into a later scope.
  RealMatrix a = random_symmetric(16, 5);
  syevd(a);
  trace_set_system(8, 100, 1000);
  TraceRecorder recorder;
  {
    TraceScope scope(recorder);
  }
  EXPECT_TRUE(recorder.take().events.empty());
}

TEST(KernelTraceTest, JsonRoundTripIsLossless) {
  KernelTrace trace;
  trace.atoms = 8;
  trace.basis_size = 181;
  trace.grid_points = 8000;
  trace.pool_threads = 4;
  TraceEvent event;
  event.cls = KernelClass::kSyevd;
  event.name = "syevd";
  event.stage = "scf[3]";
  event.flops = 123456789;
  event.bytes = 987654;
  event.input_bytes = 111;
  event.output_bytes = 222;
  event.dims[0] = 181;
  event.dims[1] = 181;
  event.host_ms = 12.375;
  trace.events.push_back(event);
  const std::string dumped = trace.to_json().dump(2);
  const KernelTrace rebuilt = KernelTrace::from_json(Json::parse(dumped));
  EXPECT_EQ(rebuilt.to_json().dump(2), dumped);
  EXPECT_EQ(rebuilt.events[0].flops, event.flops);
  EXPECT_EQ(rebuilt.atoms, 8u);
}

// ------------------------------------------- trace vs analytic agreement

/// Records one real LR-TDDFT run (4x4 excitation window).
KernelTrace record_lrtddft(std::size_t atoms) {
  const Crystal crystal = Crystal::silicon_supercell(atoms);
  const PlaneWaveBasis basis(crystal, 2.25);
  LrTddftConfig config;
  config.valence_window = 4;
  config.conduction_window = 4;
  const GroundState ground =
      solve_epm(basis, 2 * atoms + config.conduction_window + 4);
  TraceRecorder recorder;
  {
    TraceScope scope(recorder);
    solve_lrtddft(basis, ground, config);
  }
  return recorder.take();
}

/// The analytic descriptors evaluated at the real run's dimensions.
Workload analytic_model(std::size_t atoms, const KernelTrace& trace) {
  SystemDims dims;
  dims.atoms = atoms;
  dims.valence_bands = 2 * atoms;
  dims.valence_window = 4;
  dims.conduction_window = 4;
  dims.pairs = 16;
  // The functional solver diagonalises the pair space through the 2n
  // real embedding (heev), so the comparable SYEVD dimension is 2*pairs.
  dims.subspace = 2 * dims.pairs;
  dims.davidson_block = 16;
  dims.grid_points = trace.grid_points;
  dims.basis_size = trace.basis_size;
  return Workload::lrtddft_iteration(dims);
}

Flops model_flops(const Workload& model, KernelClass cls) {
  Flops total = 0;
  for (const KernelWork& k : model.kernels) {
    if (k.cls == cls) total += k.flops;
  }
  return total;
}

Bytes model_bytes(const Workload& model, KernelClass cls) {
  Bytes total = 0;
  for (const KernelWork& k : model.kernels) {
    if (k.cls == cls) total += k.l1_bytes;
  }
  return total;
}

double ratio(double measured, double analytic) {
  return analytic == 0.0 ? 0.0 : measured / analytic;
}

TEST(TraceAgreementTest, LrtddftTraceMatchesAnalyticModel) {
  // Documented tolerances (docs/CODESIGN.md): the closed-form model
  // describes one iteration's pair-space work, while the real run also
  // transforms the window orbitals and the full-valence density, so the
  // FFT class may exceed the model by the extra-transform ratio; the
  // streaming and eigensolver classes must match tightly.
  for (const std::size_t atoms : {std::size_t{8}, std::size_t{16}}) {
    const KernelTrace trace = record_lrtddft(atoms);
    ASSERT_FALSE(trace.events.empty());
    EXPECT_EQ(trace.atoms, atoms);
    const Workload model = analytic_model(atoms, trace);

    // Face-splitting + kernel application: 10 flops and 112 bytes per
    // pair-point on both sides.
    EXPECT_GT(ratio(static_cast<double>(trace.flops_of(KernelClass::kFaceSplit)),
                    static_cast<double>(model_flops(model, KernelClass::kFaceSplit))),
              0.5)
        << "atoms=" << atoms;
    EXPECT_LT(ratio(static_cast<double>(trace.flops_of(KernelClass::kFaceSplit)),
                    static_cast<double>(model_flops(model, KernelClass::kFaceSplit))),
              2.0)
        << "atoms=" << atoms;
    EXPECT_GT(ratio(static_cast<double>(trace.bytes_of(KernelClass::kFaceSplit)),
                    static_cast<double>(model_bytes(model, KernelClass::kFaceSplit))),
              0.5)
        << "atoms=" << atoms;
    EXPECT_LT(ratio(static_cast<double>(trace.bytes_of(KernelClass::kFaceSplit)),
                    static_cast<double>(model_bytes(model, KernelClass::kFaceSplit))),
              2.0)
        << "atoms=" << atoms;

    // FFT: the model covers the pair transforms; the real run adds the
    // orbital/density transforms (bounded by 4x for these windows).
    const double fft_ratio =
        ratio(static_cast<double>(trace.flops_of(KernelClass::kFft)),
              static_cast<double>(model_flops(model, KernelClass::kFft)));
    EXPECT_GT(fft_ratio, 1.0) << "atoms=" << atoms;
    EXPECT_LT(fft_ratio, 4.0) << "atoms=" << atoms;

    // Response GEMMs: the model's Davidson-block contraction against the
    // real run's two kernel contractions.
    const double gemm_ratio =
        ratio(static_cast<double>(trace.flops_of(KernelClass::kGemm)),
              static_cast<double>(model_flops(model, KernelClass::kGemm)));
    EXPECT_GT(gemm_ratio, 0.25) << "atoms=" << atoms;
    EXPECT_LT(gemm_ratio, 4.0) << "atoms=" << atoms;

    // Eigensolve: the embedded Casida diagonalisation.
    const double syevd_ratio =
        ratio(static_cast<double>(trace.flops_of(KernelClass::kSyevd)),
              static_cast<double>(model_flops(model, KernelClass::kSyevd)));
    EXPECT_GT(syevd_ratio, 0.5) << "atoms=" << atoms;
    EXPECT_LT(syevd_ratio, 2.0) << "atoms=" << atoms;

    // Kernel counts: one aggregated face-split batch, at least the pair
    // FFT batch, both kernel contractions, one eigensolve.
    EXPECT_GE(trace.count_of(KernelClass::kFft), 1u);
    EXPECT_GE(trace.count_of(KernelClass::kGemm), 2u);
    EXPECT_EQ(trace.count_of(KernelClass::kSyevd), 1u);
  }
}

// ------------------------------------------------------------ determinism

/// Everything except the measured time, for bitwise comparison.
using EventShape =
    std::tuple<KernelClass, std::string, std::string, Flops, Bytes, Bytes,
               Bytes, std::uint64_t, std::uint64_t, std::uint64_t>;

std::vector<EventShape> shape_of(const KernelTrace& trace) {
  std::vector<EventShape> shapes;
  shapes.reserve(trace.events.size());
  for (const TraceEvent& e : trace.events) {
    shapes.emplace_back(e.cls, e.name, e.stage, e.flops, e.bytes,
                        e.input_bytes, e.output_bytes, e.dims[0], e.dims[1],
                        e.dims[2]);
  }
  return shapes;
}

TEST(TraceDeterminismTest, TraceShapeBitwiseIdenticalAcrossPoolWidths) {
  const Crystal crystal = Crystal::silicon_supercell(8);
  const PlaneWaveBasis basis(crystal, 2.0);
  LrTddftConfig config;
  config.valence_window = 2;
  config.conduction_window = 2;
  const GroundState ground = solve_epm(basis, 16 + 8);

  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original = pool.threads();
  std::vector<std::vector<EventShape>> shapes;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    pool.resize(threads);
    TraceRecorder recorder;
    {
      TraceScope scope(recorder);
      solve_lrtddft(basis, ground, config);
    }
    shapes.push_back(shape_of(recorder.take()));
  }
  pool.resize(original);
  ASSERT_FALSE(shapes[0].empty());
  EXPECT_EQ(shapes[0], shapes[1]);
  EXPECT_EQ(shapes[0], shapes[2]);
}

// ------------------------------------------------- workload from the trace

TEST(WorkloadFromTraceTest, ScfTraceBecomesSchedulableWorkload) {
  const Crystal crystal = Crystal::silicon_supercell(8);
  const PlaneWaveBasis basis(crystal, 2.0);
  ScfConfig config;
  config.max_iterations = 2;
  TraceRecorder recorder;
  {
    TraceScope scope(recorder);
    solve_scf(basis, config);
  }
  const KernelTrace trace = recorder.take();
  ASSERT_FALSE(trace.events.empty());
  EXPECT_EQ(trace.atoms, 8u);
  EXPECT_EQ(trace.basis_size, basis.size());
  EXPECT_EQ(trace.grid_points, basis.fft_size());

  const Workload workload = Workload::from_trace(trace);
  EXPECT_EQ(workload.dims.atoms, 8u);
  EXPECT_EQ(workload.dims.basis_size, basis.size());
  EXPECT_EQ(workload.dims.grid_points, basis.fft_size());
  ASSERT_FALSE(workload.kernels.empty());
  EXPECT_LE(workload.kernels.size(), trace.events.size());
  for (const KernelWork& k : workload.kernels) {
    EXPECT_GT(k.dram_bytes, 0u) << k.name;
    EXPECT_GE(k.l1_bytes, k.dram_bytes) << k.name;
    if (k.cls == KernelClass::kSyevd || k.cls == KernelClass::kGemm) {
      EXPECT_EQ(k.pattern, AccessPattern::kBlocked) << k.name;
    }
    if (k.cls == KernelClass::kFft) {
      EXPECT_EQ(k.pattern, AccessPattern::kStrided) << k.name;
    }
  }
  // Trace order is pipeline order: the per-geometry v_ion tabulation
  // comes first, an eigensolve appears in every iteration.
  EXPECT_NE(workload.kernels[0].name.find("v_ion"), std::string::npos);
  std::size_t syevds = 0;
  for (const KernelWork& k : workload.kernels) {
    if (k.cls == KernelClass::kSyevd) ++syevds;
  }
  EXPECT_EQ(syevds, 2u);  // one per SCF iteration
}

TEST(WorkloadFromTraceTest, RejectsTracesWithoutWork) {
  EXPECT_THROW(Workload::from_trace(KernelTrace{}), NdftError);
  KernelTrace markers;
  TraceEvent marker;
  marker.name = "empty";
  markers.events.push_back(marker);
  EXPECT_THROW(Workload::from_trace(markers), NdftError);
}

}  // namespace
}  // namespace ndft::dft
