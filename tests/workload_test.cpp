// Tests for the analytic workload model: system dimensions, kernel
// descriptors, and cross-validation against the instrumented functional
// kernels.

#include <gtest/gtest.h>

#include <cmath>

#include "common/kernel_trace.hpp"
#include "dft/basis.hpp"
#include "dft/epm.hpp"
#include "dft/fft.hpp"
#include "dft/lattice.hpp"
#include "dft/lrtddft.hpp"
#include "dft/workload.hpp"

namespace ndft::dft {
namespace {

TEST(SystemDimsTest, PaperSizesScaleCorrectly) {
  const SystemDims small = SystemDims::silicon(64);
  const SystemDims large = SystemDims::silicon(1024);
  EXPECT_EQ(small.valence_bands, 128u);
  EXPECT_EQ(large.valence_bands, 2048u);
  // Grid and basis scale linearly with atoms at fixed cutoff.
  EXPECT_NEAR(static_cast<double>(large.grid_points) /
                  static_cast<double>(small.grid_points),
              16.0, 0.5);
  EXPECT_NEAR(static_cast<double>(large.basis_size) /
                  static_cast<double>(small.basis_size),
              16.0, 0.5);
}

TEST(SystemDimsTest, WindowsSaturate) {
  const SystemDims tiny = SystemDims::silicon(16);
  EXPECT_EQ(tiny.valence_window, 32u);
  EXPECT_EQ(tiny.conduction_window, 8u);
  const SystemDims big = SystemDims::silicon(2048);
  EXPECT_EQ(big.valence_window, 64u);
  EXPECT_EQ(big.conduction_window, 16u);
  EXPECT_EQ(big.subspace, 2600u);  // capped
  const SystemDims s64 = SystemDims::silicon(64);
  EXPECT_EQ(s64.subspace, 34u * 64);
}

TEST(SystemDimsTest, BasisDensityMatchesRealEnumeration) {
  // The closed-form N_G must match the actual G-vector count of the
  // constructed basis to within a few percent.
  const Crystal crystal = Crystal::silicon_supercell(16);
  const double ecut = 2.25;
  const PlaneWaveBasis basis(crystal, ecut);
  const SystemDims dims = SystemDims::silicon(16, ecut);
  const double ratio = static_cast<double>(dims.basis_size) /
                       static_cast<double>(basis.size());
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.15);
}

TEST(SystemDimsTest, GridDensityMatchesRealFftGrid) {
  const Crystal crystal = Crystal::silicon_supercell(16);
  const double ecut = 2.25;
  const PlaneWaveBasis basis(crystal, ecut);
  const SystemDims dims = SystemDims::silicon(16, ecut);
  const double ratio = static_cast<double>(dims.grid_points) /
                       static_cast<double>(basis.fft_size());
  // The real grid is rounded up to friendly sizes, so it is a bit larger.
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 1.3);
}

TEST(SystemDimsTest, RejectsBadAtomCounts) {
  EXPECT_THROW(SystemDims::silicon(10), NdftError);
  EXPECT_THROW(SystemDims::silicon(0), NdftError);
}

TEST(WorkloadTest, IterationHasPipelineShape) {
  const Workload w =
      Workload::lrtddft_iteration(SystemDims::silicon(64));
  ASSERT_EQ(w.kernels.size(), 8u);
  EXPECT_EQ(w.kernels[0].cls, KernelClass::kFaceSplit);
  EXPECT_EQ(w.kernels[1].cls, KernelClass::kAlltoall);
  EXPECT_EQ(w.kernels[2].cls, KernelClass::kFft);
  EXPECT_EQ(w.kernels[3].cls, KernelClass::kAlltoall);
  EXPECT_EQ(w.kernels[4].cls, KernelClass::kGemm);
  EXPECT_EQ(w.kernels[5].cls, KernelClass::kAlltoall);
  EXPECT_EQ(w.kernels[6].cls, KernelClass::kPseudopotential);
  EXPECT_EQ(w.kernels[7].cls, KernelClass::kSyevd);
}

TEST(WorkloadTest, EveryKernelHasConsistentCosts) {
  for (const std::size_t atoms : {16, 64, 256, 1024}) {
    const Workload w =
        Workload::lrtddft_iteration(SystemDims::silicon(atoms));
    for (const KernelWork& k : w.kernels) {
      EXPECT_GT(k.l1_bytes, 0u) << k.name;
      EXPECT_GT(k.dram_bytes, 0u) << k.name;
      EXPECT_GE(k.l1_bytes, k.dram_bytes) << k.name;
      EXPECT_GT(k.input_bytes, 0u) << k.name;
      EXPECT_GT(k.output_bytes, 0u) << k.name;
      if (k.cls != KernelClass::kAlltoall) {
        EXPECT_GT(k.flops, 0u) << k.name;
      } else {
        EXPECT_GT(k.comm_volume, 0u) << k.name;
      }
    }
  }
}

TEST(WorkloadTest, ArithmeticIntensitiesMatchRooflineStory) {
  const Workload w =
      Workload::lrtddft_iteration(SystemDims::silicon(1024));
  for (const KernelWork& k : w.kernels) {
    switch (k.cls) {
      case KernelClass::kFft:
        EXPECT_LT(k.arithmetic_intensity(), 2.0);
        break;
      case KernelClass::kFaceSplit:
        EXPECT_LT(k.arithmetic_intensity(), 0.5);
        break;
      case KernelClass::kGemm:
        EXPECT_GT(k.arithmetic_intensity(), 20.0);
        break;
      default:
        break;
    }
  }
}

TEST(WorkloadTest, SyevdIntensityGrowsWithSystem) {
  const Workload small =
      Workload::lrtddft_iteration(SystemDims::silicon(64));
  const Workload large =
      Workload::lrtddft_iteration(SystemDims::silicon(1024));
  double ai_small = 0.0;
  double ai_large = 0.0;
  for (const KernelWork& k : small.kernels) {
    if (k.cls == KernelClass::kSyevd) ai_small = k.arithmetic_intensity();
  }
  for (const KernelWork& k : large.kernels) {
    if (k.cls == KernelClass::kSyevd) ai_large = k.arithmetic_intensity();
  }
  EXPECT_GT(ai_large, ai_small);  // the Fig. 4 memory->compute transition
}

TEST(WorkloadTest, MemoryTrafficScalesLinearlyPastSaturation) {
  // Once the band windows saturate (>= Si_32), streaming kernels scale
  // linearly with the grid, i.e. with atoms.
  const Workload a = Workload::lrtddft_iteration(SystemDims::silicon(256));
  const Workload b = Workload::lrtddft_iteration(SystemDims::silicon(1024));
  const double ratio = static_cast<double>(b.kernels[0].l1_bytes) /
                       static_cast<double>(a.kernels[0].l1_bytes);
  EXPECT_NEAR(ratio, 4.0, 0.3);
}

TEST(WorkloadTest, FftCostMatchesFunctionalKernel) {
  // Validate the analytic FFT descriptor against the instrumented
  // functional 3D FFT: flops per grid point must agree within 2x
  // (the descriptor uses the idealised 5 N log N form).
  const Crystal crystal = Crystal::silicon_supercell(8);
  const PlaneWaveBasis basis(crystal, 2.0);
  Grid3 grid(basis.fft_dims()[0], basis.fft_dims()[1], basis.fft_dims()[2]);
  TraceRecorder recorder;
  {
    TraceScope scope(recorder);
    fft3d(grid, FftDirection::kForward);
  }
  const Flops measured = recorder.take().flops_of(KernelClass::kFft);
  const double n = static_cast<double>(grid.size());
  const double analytic_per_point = 5.0 * std::log2(n);
  const double measured_per_point = static_cast<double>(measured) / n;
  EXPECT_GT(measured_per_point, analytic_per_point * 0.5);
  EXPECT_LT(measured_per_point, analytic_per_point * 2.0);
}

TEST(WorkloadTest, FaceSplitBytesMatchFunctionalCounts) {
  // The functional pipeline tallies ~112 B per pair-point across the
  // face-splitting + kernel-application stages; the descriptor assumes
  // the same constant.
  const Crystal crystal = Crystal::silicon_supercell(8);
  const PlaneWaveBasis basis(crystal, 2.0);
  const GroundState ground = solve_epm(basis, 20);
  LrTddftConfig config;
  config.valence_window = 2;
  config.conduction_window = 2;
  TraceRecorder recorder;
  LrTddftResult result;
  {
    TraceScope scope(recorder);
    result = solve_lrtddft(basis, ground, config);
  }
  const double per_point =
      static_cast<double>(recorder.take().bytes_of(KernelClass::kFaceSplit)) /
      (static_cast<double>(result.pair_count) *
       static_cast<double>(basis.fft_size()));
  EXPECT_GT(per_point, 50.0);
  EXPECT_LT(per_point, 200.0);
}

TEST(WorkloadTest, PseudoFootprintEntersDescriptor) {
  const Workload w =
      Workload::lrtddft_iteration(SystemDims::silicon(64));
  EXPECT_EQ(w.pseudo_copy_bytes(),
            w.pseudo_sizing.bytes_total(64));
  for (const KernelWork& k : w.kernels) {
    if (k.cls == KernelClass::kPseudopotential) {
      EXPECT_GE(k.dram_bytes, w.pseudo_copy_bytes());
    }
  }
}

TEST(WorkloadTest, TotalsAggregate) {
  const Workload w = Workload::lrtddft_iteration(SystemDims::silicon(32));
  Flops flops = 0;
  Bytes bytes = 0;
  for (const KernelWork& k : w.kernels) {
    flops += k.flops;
    bytes += k.dram_bytes;
  }
  EXPECT_EQ(w.total_flops(), flops);
  EXPECT_EQ(w.total_dram_bytes(), bytes);
}

}  // namespace
}  // namespace ndft::dft
