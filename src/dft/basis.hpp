#pragma once
// Plane-wave basis at the Gamma point: every reciprocal-lattice vector G
// with kinetic energy |G|^2/2 below the cutoff, plus the FFT grid that
// holds real-space fields without aliasing.

#include <array>
#include <vector>

#include "dft/lattice.hpp"

namespace ndft::dft {

/// One basis vector.
struct GVector {
  int h = 0;  ///< integer coordinates on the reciprocal lattice
  int k = 0;
  int l = 0;
  Vec3 g;          ///< Cartesian value (Bohr^-1)
  double g2 = 0.0; ///< |G|^2
};

/// Gamma-point plane-wave basis for a crystal at a kinetic-energy cutoff.
class PlaneWaveBasis {
 public:
  /// `ecut_ha` is the wavefunction cutoff in Hartree (|G|^2/2 <= ecut).
  PlaneWaveBasis(const Crystal& crystal, double ecut_ha);

  /// Basis vectors sorted by |G|^2 (G = 0 first).
  const std::vector<GVector>& gvectors() const noexcept { return g_; }
  std::size_t size() const noexcept { return g_.size(); }

  double ecut() const noexcept { return ecut_; }
  const Crystal& crystal() const noexcept { return *crystal_; }

  /// FFT grid dimensions: >= 2*gmax+1 per axis, rounded to 2/3/5-friendly
  /// sizes so transforms avoid the Bluestein fallback.
  std::array<std::size_t, 3> fft_dims() const noexcept { return fft_dims_; }
  /// Total FFT grid points.
  std::size_t fft_size() const noexcept {
    return fft_dims_[0] * fft_dims_[1] * fft_dims_[2];
  }

  /// Linear FFT-grid index of basis vector `i` (negative frequencies wrap).
  std::size_t grid_index(std::size_t i) const {
    NDFT_ASSERT(i < grid_index_.size());
    return grid_index_[i];
  }

  /// The -G partner map: partners()[i] is the index of -G_i. The cutoff
  /// sphere is closed under inversion, so the map is an involution whose
  /// only fixed point is G = 0 (index 0).
  const std::vector<std::size_t>& partners() const noexcept {
    return partner_;
  }

 private:
  const Crystal* crystal_;
  double ecut_;
  std::vector<GVector> g_;
  std::array<std::size_t, 3> fft_dims_{};
  std::vector<std::size_t> grid_index_;
  std::vector<std::size_t> partner_;
};

}  // namespace ndft::dft
