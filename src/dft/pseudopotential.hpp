#pragma once
// Nonlocal pseudopotentials, in two roles:
//
// 1. Functional: Kleinman-Bylander separable projectors on the plane-wave
//    basis (s and p channels with Gaussian radial forms), applied to
//    wavefunctions as V_nl |psi> = sum_{a,lm} |beta_lm^a> D_l <beta_lm^a|psi>.
//    This is the "apply pseudopotential to the wavefunction" loop of the
//    paper's Algorithm 1.
//
// 2. Footprint model: the per-atom dataset a production plane-wave code
//    replicates per process (projector values on the dense real-space
//    sphere, augmentation Q_ij, radial tables, D_ij, index maps). The
//    paper's Table I and the shared-block optimization (Section IV-B) are
//    about the size of this dataset; PseudoSizing computes it from
//    physical parameters.

#include <vector>

#include "dft/basis.hpp"
#include "dft/matrix.hpp"

namespace ndft::dft {

/// Kleinman-Bylander projectors for every atom of a crystal on a basis.
class KbProjectors {
 public:
  /// Builds s (l=0) and p (l=1) projectors with Gaussian radial forms of
  /// width `sigma_bohr` for every atom in the basis's crystal.
  explicit KbProjectors(const PlaneWaveBasis& basis,
                        double sigma_bohr = 1.0);

  /// Number of projectors per atom (1 s + 3 p).
  static constexpr std::size_t kProjectorsPerAtom = 4;

  /// Total projector count (atoms x 4).
  std::size_t count() const noexcept { return coefficients_.rows(); }

  /// Applies V_nl: out += sum |beta> D <beta|in>. `in`/`out` are
  /// wavefunction coefficient vectors over the basis G vectors. Emits one
  /// Pseudopotential trace event, "nonlocal": two complex passes
  /// (projection, expansion) of 8 flops per projector coefficient.
  void apply(const std::vector<Complex>& in, std::vector<Complex>& out) const;

  /// <beta_p | in> for every projector p (used by tests and the
  /// wavefunction-update example).
  std::vector<Complex> project(const std::vector<Complex>& in) const;

  /// Coupling constant for projector `p` (D_0 for s, D_1 for p channels).
  double coupling(std::size_t p) const {
    NDFT_ASSERT(p < couplings_.size());
    return couplings_[p];
  }

 private:
  const PlaneWaveBasis* basis_;
  ComplexMatrix coefficients_;     // projector p x G vector
  std::vector<double> couplings_;  // D per projector
};

/// Sizing model for the per-atom pseudopotential dataset of a production
/// plane-wave code (PAW-style). All knobs are physical; bytes_per_atom()
/// lands near the ~0.6-1.2 MB/atom range implied by the paper's Table I.
struct PseudoSizing {
  unsigned projectors = 8;          ///< s,p x 2 channels: 2*(1+3)
  double cutoff_radius_bohr = 2.5;  ///< projector sphere radius
  double ecut_ha = 12.5;            ///< wavefunction cutoff (25 Ry)
  unsigned dense_factor = 2;        ///< augmentation-grid refinement per axis
  unsigned radial_points = 600;     ///< radial table length per channel

  /// Real-space grid density (points per Bohr^3) implied by the cutoff.
  double grid_density() const;

  /// Grid points inside the projector sphere (dense grid if `dense`).
  std::size_t sphere_points(bool dense) const;

  /// Bytes of pseudopotential data for one atom: projectors + augmentation
  /// Q_ij + radial tables + D_ij + integer index map.
  Bytes bytes_per_atom() const;

  /// Complete dataset for `atoms` atoms (one process's copy).
  Bytes bytes_total(std::size_t atoms) const {
    return bytes_per_atom() * atoms;
  }

  /// Per-atom *index* bytes a process keeps for blocks it does not own
  /// (shared-block mode: owner id, offset, length, atom id).
  static Bytes index_bytes_per_atom() noexcept { return 32; }
};

}  // namespace ndft::dft
