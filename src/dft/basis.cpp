#include "dft/basis.hpp"

#include <algorithm>
#include <cmath>

#include "dft/fft.hpp"

namespace ndft::dft {

PlaneWaveBasis::PlaneWaveBasis(const Crystal& crystal, double ecut_ha)
    : crystal_(&crystal), ecut_(ecut_ha) {
  NDFT_REQUIRE(ecut_ha > 0.0, "cutoff must be positive");
  const double gmax2 = 2.0 * ecut_ha;
  const double gmax = std::sqrt(gmax2);

  // Integer search bounds per axis from the reciprocal vector lengths
  // (orthorhombic supercells in this codebase, but computed generally).
  const auto bound = [&](const Vec3& b) {
    return static_cast<int>(std::ceil(gmax / std::sqrt(b.norm2()))) + 1;
  };
  const int hmaxs[3] = {bound(crystal.b1()), bound(crystal.b2()),
                        bound(crystal.b3())};

  for (int h = -hmaxs[0]; h <= hmaxs[0]; ++h) {
    for (int k = -hmaxs[1]; k <= hmaxs[1]; ++k) {
      for (int l = -hmaxs[2]; l <= hmaxs[2]; ++l) {
        const Vec3 g = crystal.b1() * static_cast<double>(h) +
                       crystal.b2() * static_cast<double>(k) +
                       crystal.b3() * static_cast<double>(l);
        const double g2 = g.norm2();
        if (g2 <= gmax2 + 1e-12) {
          g_.push_back(GVector{h, k, l, g, g2});
        }
      }
    }
  }
  const auto shorter = [](const GVector& a, const GVector& b) {
    if (a.g2 != b.g2) return a.g2 < b.g2;
    if (a.h != b.h) return a.h < b.h;
    if (a.k != b.k) return a.k < b.k;
    return a.l < b.l;
  };
  std::sort(g_.begin(), g_.end(), shorter);

  // -G is built from the negated integers, so its |G|^2 carries the same
  // bits and it sorts where the search below looks for it.
  partner_.reserve(g_.size());
  for (const GVector& gv : g_) {
    const GVector mirror{-gv.h, -gv.k, -gv.l, gv.g * -1.0, gv.g2};
    const auto it = std::lower_bound(g_.begin(), g_.end(), mirror, shorter);
    NDFT_ASSERT(it != g_.end() && it->h == mirror.h && it->k == mirror.k &&
                it->l == mirror.l);
    partner_.push_back(static_cast<std::size_t>(it - g_.begin()));
  }

  // FFT grid: needs indices in [-2*hmax, 2*hmax] to hold densities (products
  // of two wavefunctions) alias-free; wavefunction-only work uses the same
  // grid for simplicity.
  int extent[3] = {0, 0, 0};
  for (const GVector& gv : g_) {
    extent[0] = std::max(extent[0], std::abs(gv.h));
    extent[1] = std::max(extent[1], std::abs(gv.k));
    extent[2] = std::max(extent[2], std::abs(gv.l));
  }
  for (int axis = 0; axis < 3; ++axis) {
    fft_dims_[static_cast<std::size_t>(axis)] =
        friendly_size(static_cast<std::size_t>(2 * extent[axis] + 1));
  }

  grid_index_.reserve(g_.size());
  const auto wrap = [](int idx, std::size_t n) {
    const int ni = static_cast<int>(n);
    return static_cast<std::size_t>(((idx % ni) + ni) % ni);
  };
  for (const GVector& gv : g_) {
    const std::size_t ix = wrap(gv.h, fft_dims_[0]);
    const std::size_t iy = wrap(gv.k, fft_dims_[1]);
    const std::size_t iz = wrap(gv.l, fft_dims_[2]);
    grid_index_.push_back((iz * fft_dims_[1] + iy) * fft_dims_[0] + ix);
  }
}

}  // namespace ndft::dft
