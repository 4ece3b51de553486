#pragma once
// Beyond-Gamma electronic structure: EPM eigenvalues at arbitrary k,
// high-symmetry paths through the Brillouin zone, Monkhorst-Pack grids,
// and the primitive FCC silicon cell (2 atoms) whose unfolded band
// structure is the textbook Cohen-Bergstresser result.
//
// At any k the Hamiltonian H(G,G') = 1/2 |k+G|^2 delta_GG' + V(G-G')
// stays real symmetric (the potential depends only on G-G' and is real
// for the bond-centred geometry), so the same SYEVD path serves the whole
// zone.

#include <string>
#include <vector>

#include "dft/basis.hpp"
#include "dft/epm.hpp"

namespace ndft::dft {

/// A k-point in Cartesian reciprocal coordinates (Bohr^-1) with a label
/// and an integration weight (for grids).
struct KPoint {
  Vec3 k;
  double weight = 1.0;
  std::string label;  ///< nonempty at high-symmetry points
};

/// Eigenvalues at one k-point.
struct BandsAtK {
  KPoint kpoint;
  std::vector<double> energies_ha;  ///< ascending
};

/// The primitive FCC silicon cell: 2 atoms at +/- a0/8 (1,1,1), lattice
/// vectors a0/2 (0,1,1) etc. Band structures on this cell are unfolded
/// (no supercell band folding).
Crystal silicon_primitive();

/// The FCC high-symmetry path L -> Gamma -> X -> K -> Gamma for the
/// conventional lattice constant `a0`, sampled with `segments` points per
/// leg (the X -> K leg runs directly, not via the textbook U|K jump).
/// Both endpoints of every leg carry their high-symmetry labels, so path
/// traces and gap summaries always name the junctions.
std::vector<KPoint> fcc_kpath(double a0, unsigned segments = 12);

/// A Monkhorst-Pack n1 x n2 x n3 grid for `crystal`, weights summing to 1.
std::vector<KPoint> monkhorst_pack(const Crystal& crystal, unsigned n1,
                                   unsigned n2, unsigned n3);

/// Folds a k-set to its time-reversal half: H(-k) and H(k) share a
/// spectrum for the real EPM potential, so each -k partner is dropped and
/// its weight added onto the +k representative (the earlier point in grid
/// order; self-paired points like Gamma keep their weight). Total weight
/// is preserved exactly — partners carry bitwise-negated coordinates on
/// Monkhorst-Pack grids ((2r-n-1)/2n is closed under r -> n-1-r), so the
/// match is exact, not tolerance-based. Points without a partner in the
/// set pass through unchanged.
std::vector<KPoint> fold_time_reversal(const std::vector<KPoint>& grid);

/// EPM eigenvalues at one k (lowest `bands`, clamped to the basis size;
/// 0 keeps all). A nonzero window below the basis size runs the
/// partial-spectrum eigensolver for eigenvalues only
/// (syevd_partial_values).
BandsAtK solve_epm_at_k(const PlaneWaveBasis& basis, const KPoint& kpoint,
                        std::size_t bands = 0);

/// EPM band structure along a path or grid, bitwise the energies
/// solve_epm_at_k() gives at each point: the k-independent potential is
/// assembled once per call, and each k-point writes its kinetic diagonal
/// and runs one eigenvalue-only solve. Independent k-points split across
/// the thread pool, one reused solver workspace per working thread
/// (results bitwise identical for any thread count); traced and
/// fault-armed runs solve the k-points serially instead, so the per-k
/// stage events keep program order and a pool-width-independent shape.
std::vector<BandsAtK> band_structure(const PlaneWaveBasis& basis,
                                     const std::vector<KPoint>& path,
                                     std::size_t bands);

/// Valence-band maximum, conduction-band minimum, the indirect gap (eV)
/// and the direct gap at the zone centre over a set of solved k-points,
/// assuming `valence` filled bands (>= 1), plus the weight-integrated
/// occupied band energy.
struct GapSummary {
  double vbm_ha = 0.0;
  double cbm_ha = 0.0;
  std::string vbm_label;
  std::string cbm_label;
  /// Weight-averaged occupied band energy,
  /// sum_k w_k * 2 * sum_{v < valence} e_v(k) / sum_k w_k: the
  /// BZ-integrated band energy per cell when the weights are a normalised
  /// Monkhorst-Pack grid's, the plain path average for unit weights.
  double band_energy_ha = 0.0;
  /// Total integration weight of the summarised k-set (1 for MP grids,
  /// the point count for unit-weight paths).
  double weight_sum = 0.0;
  /// Direct gap (eV) at the first zone-centre point in set order: the
  /// point labelled "Gamma", or the unlabelled k == 0 point an odd
  /// Monkhorst-Pack grid contains. 0 when the set has no such point.
  double direct_gap_gamma_ev = 0.0;

  double indirect_gap_ev() const noexcept {
    return (cbm_ha - vbm_ha) * kEvPerHa;
  }
};
/// Throws NdftError on an empty set, `valence` == 0, or a k-point with no
/// conduction band (at most `valence` energies).
GapSummary find_gap(const std::vector<BandsAtK>& bands, std::size_t valence);

}  // namespace ndft::dft
