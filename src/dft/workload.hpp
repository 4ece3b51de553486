#pragma once
// Analytic workload model of one representative LR-TDDFT iteration
// (paper Fig. 1) for silicon systems Si_16 ... Si_2048.
//
// The functional pipeline (lrtddft.cpp) runs end-to-end only for small
// systems; the timing simulation of the large paper systems uses these
// closed-form kernel descriptors instead. SystemDims::silicon sets the
// dimensions by these rules, with Nv = 2*atoms valence bands:
//
//  - band windows (energy-window truncation around the gap, standard for
//    large-system LR-TDDFT): Nv_win = min(Nv, 64) valence and
//    Nc_win = min(16, max(8, Nv/4)) conduction bands, so the pair space
//    is Npair = Nv_win * Nc_win (1024 from Si_32 up);
//  - response GEMMs use a Davidson block of Nx = 16 trial vectors;
//  - SYEVD(Casida) diagonalises n_sub = min(34*atoms, 2600), about 34
//    excitations per atom up to a cap. n_sub does not follow the pair
//    space and exceeds it at every size: 544 against 256 pairs at Si_16,
//    2176 against 64 x 16 = 1024 at Si_64, 2600 against 1024 from Si_128
//    up (ROADMAP item 2);
//  - the grid/basis sizes follow the 25 Ry cutoff (ecut = 12.5 Ha).
//
// tests/workload_test.cpp pins these dimensions (SystemDimsTest) and
// checks the grid and basis densities and the FFT and face-splitting
// costs against the functional code at small sizes.

#include <string>
#include <vector>

#include "common/kernel_trace.hpp"
#include "common/types.hpp"
#include "dft/pseudopotential.hpp"

namespace ndft::dft {

/// Problem dimensions derived from the atom count.
struct SystemDims {
  std::size_t atoms = 0;
  std::size_t valence_bands = 0;      ///< 2 per Si atom
  std::size_t valence_window = 0;     ///< bands entering the response
  std::size_t conduction_window = 0;
  std::size_t pairs = 0;              ///< Nv_win * Nc_win
  std::size_t subspace = 0;           ///< SYEVD dimension n_sub
  std::size_t davidson_block = 16;    ///< Nx response vectors
  std::size_t grid_points = 0;        ///< Nr (FFT grid)
  std::size_t basis_size = 0;         ///< N_G (plane waves)
  double ecut_ha = 12.5;

  /// Builds the dimensions for an Si_n system (n multiple of 8).
  static SystemDims silicon(std::size_t atoms, double ecut_ha = 12.5);
};

/// One kernel of the iteration with machine-independent costs.
struct KernelWork {
  KernelClass cls = KernelClass::kOther;
  std::string name;
  Flops flops = 0;
  /// Bytes issued by instructions (L1-level traffic).
  Bytes l1_bytes = 0;
  /// Expected DRAM-level traffic for a well-blocked implementation; the
  /// trace generator uses this as the streaming working set.
  Bytes dram_bytes = 0;
  AccessPattern pattern = AccessPattern::kSequential;
  Bytes stride_bytes = 64;
  /// For Alltoall: bytes that must cross the fabric between processes.
  Bytes comm_volume = 0;
  /// Bytes this kernel consumes from the previous pipeline stage; moved
  /// between devices when the schedule changes placement (DT in Eq. 1).
  Bytes input_bytes = 0;
  /// Bytes this kernel hands to the next stage.
  Bytes output_bytes = 0;

  /// Arithmetic intensity at the DRAM level (roofline x-coordinate).
  double arithmetic_intensity() const noexcept {
    return dram_bytes == 0 ? 1e9
                           : static_cast<double>(flops) /
                                 static_cast<double>(dram_bytes);
  }
};

/// The full iteration: kernels in pipeline order plus footprint inputs.
struct Workload {
  SystemDims dims;
  std::vector<KernelWork> kernels;
  PseudoSizing pseudo_sizing;

  /// Bytes of one complete per-process pseudopotential copy.
  Bytes pseudo_copy_bytes() const {
    return pseudo_sizing.bytes_total(dims.atoms);
  }

  /// Sum of flops over all kernels.
  Flops total_flops() const;
  /// Sum of DRAM bytes over all kernels.
  Bytes total_dram_bytes() const;

  /// Builds the representative LR-TDDFT iteration for the dimensions.
  static Workload lrtddft_iteration(const SystemDims& dims,
                                    const PseudoSizing& sizing = {});

  /// Builds a workload from a measured kernel trace (the co-design path):
  /// every recorded event becomes one KernelWork in trace order, with the
  /// DRAM-level traffic estimated by the class-specific reuse model of
  /// kernel_work_from_event. System dimensions come from the trace's
  /// recorded atoms/basis/grid. Throws NdftError on an empty trace.
  static Workload from_trace(const KernelTrace& trace,
                             const PseudoSizing& sizing = {});
};

/// Converts one measured trace event into a schedulable kernel
/// descriptor. The instruction-level bytes are the event's own tally;
/// DRAM traffic applies the same reuse assumptions as the analytic model
/// (GEMM/SYEVD blocked with flops/AI traffic, FFT and streaming kernels
/// at instruction-level volume), so measured and analytic workloads land
/// on the same roofline axes.
KernelWork kernel_work_from_event(const TraceEvent& event);

}  // namespace ndft::dft
