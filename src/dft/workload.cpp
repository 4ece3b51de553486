#include "dft/workload.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "dft/lattice.hpp"
#include "dft/linalg.hpp"

namespace ndft::dft {
namespace {

/// Volume per silicon atom in Bohr^3 (diamond cell: a0^3 / 8).
double si_volume_per_atom() {
  const double a0 = kSiliconLatticeBohr;
  return a0 * a0 * a0 / 8.0;
}

// Class-specific DRAM reuse assumptions, shared by the analytic
// descriptors and the trace conversion so measured and analytic
// workloads land on the same roofline axes.

/// Cache-blocked GEMM (b = 192): DRAM traffic is flops / 48.
constexpr Flops kGemmBlockedReuse = 48;

/// Two-stage blocked SYEVD: arithmetic intensity grows as n/340 between
/// the memory-bound small-matrix regime and the panel cap.
double syevd_ai(double n) { return std::clamp(n / 340.0, 1.0, 16.0); }

}  // namespace

SystemDims SystemDims::silicon(std::size_t atoms, double ecut_ha) {
  NDFT_REQUIRE(atoms >= 8 && atoms % 8 == 0,
               "silicon systems need a multiple of 8 atoms");
  SystemDims dims;
  dims.atoms = atoms;
  dims.ecut_ha = ecut_ha;
  dims.valence_bands = 2 * atoms;
  // Energy-window truncation around the gap, standard for large-system
  // LR-TDDFT: the response is built from the bands nearest the gap while
  // grids/pseudopotentials still scale with the full system.
  dims.valence_window = std::min<std::size_t>(dims.valence_bands, 64);
  dims.conduction_window = std::min<std::size_t>(
      16, std::max<std::size_t>(8, dims.valence_bands / 4));
  dims.pairs = dims.valence_window * dims.conduction_window;
  // SYEVD targets ~34 excitations per atom until the subspace cap.
  dims.subspace = std::min<std::size_t>(34 * atoms, 2600);
  dims.davidson_block = 16;

  const double volume = si_volume_per_atom() * static_cast<double>(atoms);
  const double kmax = std::sqrt(2.0 * ecut_ha);
  // FFT grid density (kmax/pi)^3; basis density kmax^3 / (6 pi^2).
  dims.grid_points = static_cast<std::size_t>(
      volume * std::pow(kmax / std::numbers::pi, 3.0));
  dims.basis_size = static_cast<std::size_t>(
      volume * kmax * kmax * kmax / (6.0 * std::numbers::pi *
                                     std::numbers::pi));
  return dims;
}

Flops Workload::total_flops() const {
  Flops total = 0;
  for (const KernelWork& k : kernels) total += k.flops;
  return total;
}

Bytes Workload::total_dram_bytes() const {
  Bytes total = 0;
  for (const KernelWork& k : kernels) total += k.dram_bytes;
  return total;
}

Workload Workload::lrtddft_iteration(const SystemDims& dims,
                                     const PseudoSizing& sizing) {
  Workload w;
  w.dims = dims;
  w.pseudo_sizing = sizing;

  const auto npair = static_cast<Flops>(dims.pairs);
  const auto nr = static_cast<Flops>(dims.grid_points);
  const auto nsub = static_cast<Flops>(dims.subspace);
  const auto nx = static_cast<Flops>(dims.davidson_block);
  const auto bands =
      static_cast<Flops>(dims.valence_window + dims.conduction_window);
  const auto atoms = static_cast<Flops>(dims.atoms);
  const double log_nr = std::log2(static_cast<double>(nr));

  const Bytes pair_matrix_bytes = 16ull * npair * nr;
  const Bytes orbital_bytes = 16ull * bands * nr;

  // --- 1. Face-splitting products P_vc = psi_v* psi_c plus the pointwise
  // Coulomb/XC kernel application (the paper's "point-point multiplication"
  // phase). Pure streaming: ~112 B and 10 flops per pair-point.
  {
    KernelWork k;
    k.cls = KernelClass::kFaceSplit;
    k.name = "FaceSplit+Kernels";
    k.flops = 10 * npair * nr;
    k.l1_bytes = 112 * npair * nr;
    k.dram_bytes = k.l1_bytes;
    k.pattern = AccessPattern::kSequential;
    k.input_bytes = orbital_bytes;
    k.output_bytes = pair_matrix_bytes;
    w.kernels.push_back(k);
  }

  // --- 2. Alltoall #1: band -> grid redistribution of P (16 B/point).
  const auto alltoall = [&](const char* name) {
    KernelWork k;
    k.cls = KernelClass::kAlltoall;
    k.name = name;
    k.flops = 0;
    k.l1_bytes = 2 * pair_matrix_bytes;  // gather + scatter
    k.dram_bytes = k.l1_bytes;
    k.pattern = AccessPattern::kRandom;
    k.comm_volume = pair_matrix_bytes;
    k.input_bytes = pair_matrix_bytes;
    k.output_bytes = pair_matrix_bytes;
    return k;
  };
  w.kernels.push_back(alltoall("Alltoall(band->grid)"));

  // --- 3. 3D FFTs of every pair product: 5 Nr log2 Nr flops, two
  // read+write sweeps over the grid (the fused X+Y slab pass plus the
  // strided Z pass).
  {
    KernelWork k;
    k.cls = KernelClass::kFft;
    k.name = "FFT(P_vc)";
    k.flops = static_cast<Flops>(5.0 * static_cast<double>(npair * nr) *
                                 log_nr);
    k.l1_bytes = 64 * npair * nr;
    k.dram_bytes = k.l1_bytes;
    k.pattern = AccessPattern::kStrided;
    k.stride_bytes = 1024;  // pass-mix average: one mostly-contiguous
                            // fused sweep + one strided Z sweep
    k.input_bytes = pair_matrix_bytes;
    k.output_bytes = pair_matrix_bytes;
    w.kernels.push_back(k);
  }

  // --- 4. Alltoall #2: grid -> band redistribution.
  w.kernels.push_back(alltoall("Alltoall(grid->band)"));

  // --- 5. Response GEMMs: two contractions with the Davidson block
  // (P * X and P^T * (f P X)); complex, cache-blocked (b = 192), so DRAM
  // traffic is flops/48 while registers see ~1 load per 8 flops.
  {
    KernelWork k;
    k.cls = KernelClass::kGemm;
    k.name = "GEMM(response)";
    k.flops = 16 * nx * npair * nr;
    k.l1_bytes = k.flops;      // ~1 byte of L1 traffic per flop
    k.dram_bytes = k.flops / kGemmBlockedReuse;
    k.pattern = AccessPattern::kBlocked;
    k.input_bytes = pair_matrix_bytes + 16 * nx * nr;
    k.output_bytes = 16 * nx * npair;
    w.kernels.push_back(k);
  }

  // --- 6. Alltoall #3: gather the projected response matrix.
  w.kernels.push_back(alltoall("Alltoall(gather K)"));

  // --- 7. Nonlocal pseudopotential application to the band window:
  // real-space projection against each atom's dataset (Algorithm 1's
  // wavefunction-update loop). The per-atom dataset streams once per
  // 16-band batch; this is the data the shared-block design shares.
  {
    KernelWork k;
    k.cls = KernelClass::kPseudopotential;
    k.name = "Pseudopotential";
    const auto sphere = static_cast<Flops>(sizing.sphere_points(false));
    const auto proj = static_cast<Flops>(sizing.projectors);
    k.flops = 4 * proj * sphere * atoms * bands;
    const Flops batches = std::max<Flops>((bands + 15) / 16, 1);
    k.dram_bytes = batches * w.pseudo_copy_bytes();
    k.l1_bytes = std::max<Bytes>(k.flops, 2 * k.dram_bytes);
    k.pattern = AccessPattern::kSequential;
    k.input_bytes = orbital_bytes;
    k.output_bytes = orbital_bytes;
    w.kernels.push_back(k);
  }

  // --- 8. SYEVD on the energy-truncated pair space. Two-stage blocked
  // solver: AI grows with the matrix size (n/340), crossing the CPU's
  // blocked-kernel machine balance between the small and large systems.
  {
    KernelWork k;
    k.cls = KernelClass::kSyevd;
    k.name = "SYEVD(Casida)";
    k.flops = syevd_cost(dims.subspace).flops;
    const double ai = syevd_ai(static_cast<double>(nsub));
    k.dram_bytes = static_cast<Bytes>(static_cast<double>(k.flops) / ai);
    k.l1_bytes = 2 * k.dram_bytes;
    k.pattern = AccessPattern::kBlocked;
    k.input_bytes = 16 * nsub * nsub;
    k.output_bytes = 16 * nsub * nsub;
    w.kernels.push_back(k);
  }

  return w;
}

KernelWork kernel_work_from_event(const TraceEvent& event) {
  KernelWork k;
  k.cls = event.cls;
  k.name = event.stage.empty() ? event.name
                               : event.stage + "/" + event.name;
  k.flops = event.flops;
  k.l1_bytes = std::max<Bytes>(event.bytes, 1);
  k.input_bytes = event.input_bytes;
  k.output_bytes = event.output_bytes;
  const Bytes operands = event.input_bytes + event.output_bytes;
  switch (event.cls) {
    case KernelClass::kGemm: {
      // Cache-blocked: DRAM sees the shared blocked-reuse fraction, but
      // never less than one pass over the operands.
      k.pattern = AccessPattern::kBlocked;
      k.dram_bytes = std::max<Bytes>(k.flops / kGemmBlockedReuse, operands);
      break;
    }
    case KernelClass::kSyevd: {
      // The shared AI transition of the analytic descriptor. The
      // reduction's panel sweeps stream far more than the n^2 matrix
      // bytes the event's tally reports, so the DRAM estimate comes
      // from the AI model, not from the event's byte count.
      k.pattern = AccessPattern::kBlocked;
      const double ai = syevd_ai(static_cast<double>(event.dims[0]));
      k.dram_bytes =
          static_cast<Bytes>(static_cast<double>(k.flops) / ai);
      break;
    }
    case KernelClass::kFft:
      // Strided grid sweeps (fused X+Y, then Z): instruction-level ==
      // DRAM-level.
      k.pattern = AccessPattern::kStrided;
      k.stride_bytes = 1024;
      k.dram_bytes = k.l1_bytes;
      break;
    case KernelClass::kAlltoall:
      k.pattern = AccessPattern::kRandom;
      k.dram_bytes = k.l1_bytes;
      k.comm_volume = k.l1_bytes / 2;
      break;
    case KernelClass::kFaceSplit:
    case KernelClass::kPseudopotential:
    case KernelClass::kOther:
      // Pure streaming / assembly: every instruction-level byte misses.
      k.pattern = AccessPattern::kSequential;
      k.dram_bytes = k.l1_bytes;
      break;
  }
  // Instruction-level traffic can never trail the DRAM estimate (the
  // blocked classes' reuse models sit above their events' byte tallies,
  // mirroring the analytic descriptors' l1 >= dram invariant).
  k.dram_bytes = std::max<Bytes>(k.dram_bytes, 1);
  k.l1_bytes = std::max(k.l1_bytes, k.dram_bytes);
  return k;
}

Workload Workload::from_trace(const KernelTrace& trace,
                              const PseudoSizing& sizing) {
  NDFT_REQUIRE(!trace.events.empty(),
               "cannot build a workload from an empty trace");
  Workload w;
  w.pseudo_sizing = sizing;
  // Rebuild the dimensions from the recorded system: the silicon closed
  // forms where the atom count fits the supercell family, measured basis
  // and grid sizes always.
  if (trace.atoms >= 8 && trace.atoms % 8 == 0) {
    w.dims = SystemDims::silicon(trace.atoms);
  } else {
    w.dims.atoms = trace.atoms;
    w.dims.valence_bands = 2 * trace.atoms;
  }
  if (trace.basis_size != 0) w.dims.basis_size = trace.basis_size;
  if (trace.grid_points != 0) w.dims.grid_points = trace.grid_points;

  w.kernels.reserve(trace.events.size());
  for (const TraceEvent& event : trace.events) {
    if (event.flops == 0 && event.bytes == 0) {
      continue;  // marker-only event, nothing to schedule
    }
    w.kernels.push_back(kernel_work_from_event(event));
  }
  NDFT_REQUIRE(!w.kernels.empty(),
               "trace carries no schedulable kernel work");
  return w;
}

}  // namespace ndft::dft
