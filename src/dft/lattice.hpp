#pragma once
// Crystal lattices and the silicon supercells used throughout the paper
// (Si_16 ... Si_2048). Lengths are in Bohr, energies in Hartree.

#include <array>
#include <cstddef>
#include <numbers>
#include <vector>

#include "common/error.hpp"

namespace ndft::dft {

/// Minimal 3-vector for lattice geometry.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  Vec3 operator+(const Vec3& o) const noexcept {
    return {x + o.x, y + o.y, z + o.z};
  }
  Vec3 operator-(const Vec3& o) const noexcept {
    return {x - o.x, y - o.y, z - o.z};
  }
  Vec3 operator*(double s) const noexcept { return {x * s, y * s, z * s}; }
  double dot(const Vec3& o) const noexcept {
    return x * o.x + y * o.y + z * o.z;
  }
  Vec3 cross(const Vec3& o) const noexcept {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  double norm2() const noexcept { return dot(*this); }
};

/// Conventional silicon lattice constant (5.431 Angstrom) in Bohr.
inline constexpr double kSiliconLatticeBohr = 10.2631;

/// Electronvolts per Hartree: the one conversion behind every eV figure.
inline constexpr double kEvPerHa = 27.211386;

/// Hartree per Rydberg: cutoffs and form factors are quoted in Rydberg.
inline constexpr double kHaPerRy = 0.5;

/// 4 pi, the Coulomb kernel's and the unit sphere's solid-angle factor.
inline constexpr double kFourPi = 4.0 * std::numbers::pi;

/// A periodic crystal: lattice vectors plus atom positions (Cartesian Bohr).
class Crystal {
 public:
  Crystal(Vec3 a1, Vec3 a2, Vec3 a3, std::vector<Vec3> positions);

  const Vec3& a1() const noexcept { return a1_; }
  const Vec3& a2() const noexcept { return a2_; }
  const Vec3& a3() const noexcept { return a3_; }

  /// Reciprocal lattice vectors (include the 2*pi factor).
  const Vec3& b1() const noexcept { return b1_; }
  const Vec3& b2() const noexcept { return b2_; }
  const Vec3& b3() const noexcept { return b3_; }

  /// Cell volume in Bohr^3.
  double volume() const noexcept { return volume_; }

  const std::vector<Vec3>& positions() const noexcept { return positions_; }
  std::size_t atom_count() const noexcept { return positions_.size(); }

  /// Builds the diamond-structure silicon supercell with `n_atoms` atoms
  /// (must be a multiple of 8: the conventional cubic cell holds 8). The
  /// supercell replication (n1, n2, n3) is chosen as cubic as possible;
  /// Si_16 -> 1x1x2 cells, Si_64 -> 2x2x2, Si_1024 -> 4x4x8, ...
  static Crystal silicon_supercell(std::size_t n_atoms);

  /// The replication factors silicon_supercell() would pick.
  static std::array<std::size_t, 3> supercell_factors(std::size_t n_cells);

 private:
  Vec3 a1_, a2_, a3_;
  Vec3 b1_, b2_, b3_;
  double volume_;
  std::vector<Vec3> positions_;
};

}  // namespace ndft::dft
