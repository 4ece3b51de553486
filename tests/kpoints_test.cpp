// Tests for the k-point machinery: primitive cell, high-symmetry paths,
// Monkhorst-Pack grids and the silicon band structure's known features.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/kernel_trace.hpp"
#include "common/thread_pool.hpp"
#include "dft/kpoints.hpp"

namespace ndft::dft {
namespace {

TEST(PrimitiveCellTest, TwoAtomsAndFccVolume) {
  const Crystal primitive = silicon_primitive();
  EXPECT_EQ(primitive.atom_count(), 2u);
  const double a0 = kSiliconLatticeBohr;
  EXPECT_NEAR(primitive.volume(), a0 * a0 * a0 / 4.0, 1e-6);
}

TEST(PrimitiveCellTest, SameBondLengthAsSupercell) {
  const Crystal primitive = silicon_primitive();
  const auto& pos = primitive.positions();
  const double bond = std::sqrt((pos[0] - pos[1]).norm2());
  EXPECT_NEAR(bond, std::sqrt(3.0) / 4.0 * kSiliconLatticeBohr, 1e-9);
}

TEST(KPathTest, LabelsAndLegStructure) {
  const std::vector<KPoint> path = fcc_kpath(kSiliconLatticeBohr, 5);
  EXPECT_EQ(path.size(), 4u * 5 + 1);
  EXPECT_EQ(path.front().label, "L");
  EXPECT_EQ(path.back().label, "Gamma");
  unsigned labelled = 0;
  for (const KPoint& kp : path) {
    if (!kp.label.empty()) ++labelled;
  }
  EXPECT_EQ(labelled, 5u);  // L, Gamma, X, K, Gamma
}

TEST(KPathTest, GammaIsAtOrigin) {
  const std::vector<KPoint> path = fcc_kpath(kSiliconLatticeBohr, 4);
  for (const KPoint& kp : path) {
    if (kp.label == "Gamma") {
      EXPECT_NEAR(kp.k.norm2(), 0.0, 1e-18);
    }
    if (kp.label == "X") {
      const double unit = 2.0 * std::numbers::pi / kSiliconLatticeBohr;
      EXPECT_NEAR(std::sqrt(kp.k.norm2()), unit, 1e-9);
    }
  }
}

TEST(KPathTest, LabelsBothLegEndpoints) {
  // Every high-symmetry junction must carry its label at the exact index
  // where the leg boundary sits: point l*segments for leg l, and the
  // final appended endpoint. Interior points stay unlabelled.
  const unsigned segments = 7;
  const std::vector<KPoint> path = fcc_kpath(kSiliconLatticeBohr, segments);
  ASSERT_EQ(path.size(), 4u * segments + 1);
  const char* expected[] = {"L", "Gamma", "X", "K", "Gamma"};
  for (std::size_t leg = 0; leg < 5; ++leg) {
    EXPECT_EQ(path[leg * segments].label, expected[leg])
        << "junction " << leg;
  }
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i % segments != 0) {
      EXPECT_TRUE(path[i].label.empty()) << "interior point " << i;
    }
  }
  // The third leg runs straight from X to K (what the docstring now
  // says), not via the textbook U|K jump: every interior point
  // interpolates linearly between the two junctions.
  const double unit = 2.0 * std::numbers::pi / kSiliconLatticeBohr;
  const Vec3 x{0.0, unit, 0.0};
  const Vec3 k_point{0.75 * unit, 0.75 * unit, 0.0};
  for (unsigned s = 0; s < segments; ++s) {
    const double t = static_cast<double>(s) / segments;
    const Vec3 expected_k = x + (k_point - x) * t;
    EXPECT_NEAR((path[2 * segments + s].k - expected_k).norm2(), 0.0,
                1e-24)
        << "X->K interior point " << s;
  }
}

TEST(MonkhorstPackTest, WeightsSumToOne) {
  const Crystal primitive = silicon_primitive();
  const auto grid = monkhorst_pack(primitive, 3, 3, 3);
  EXPECT_EQ(grid.size(), 27u);
  double total = 0.0;
  for (const KPoint& kp : grid) total += kp.weight;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(MonkhorstPackTest, NonCubicGridCountAndWeights) {
  const Crystal primitive = silicon_primitive();
  const auto grid = monkhorst_pack(primitive, 2, 3, 4);
  EXPECT_EQ(grid.size(), 2u * 3 * 4);
  double total = 0.0;
  for (const KPoint& kp : grid) {
    EXPECT_NEAR(kp.weight, 1.0 / 24.0, 1e-15);
    total += kp.weight;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(MonkhorstPackTest, TimeReversalPairsPresent) {
  // The MP fractions (2r - n - 1)/2n negate under r -> n - 1 - r, so the
  // grid is closed under k -> -k (time reversal) for even and odd
  // divisions alike.
  const Crystal primitive = silicon_primitive();
  for (const auto& dims : {std::array<unsigned, 3>{2, 2, 2},
                           std::array<unsigned, 3>{3, 3, 3},
                           std::array<unsigned, 3>{2, 3, 4}}) {
    const auto grid = monkhorst_pack(primitive, dims[0], dims[1], dims[2]);
    for (const KPoint& kp : grid) {
      bool paired = false;
      for (const KPoint& other : grid) {
        if ((kp.k + other.k).norm2() < 1e-20) {
          paired = true;
          break;
        }
      }
      EXPECT_TRUE(paired) << "no -k partner for (" << kp.k.x << ", "
                          << kp.k.y << ", " << kp.k.z << ")";
    }
  }
}

TEST(MonkhorstPackTest, EvenGridAvoidsGamma) {
  const Crystal primitive = silicon_primitive();
  for (const KPoint& kp : monkhorst_pack(primitive, 2, 2, 2)) {
    EXPECT_GT(kp.k.norm2(), 1e-12);  // MP even grids exclude Gamma
  }
}

TEST(FoldTimeReversalTest, HalvesEvenGridsExactly) {
  // Even grids have no self-paired point, so folding keeps exactly half
  // the points, each representative carrying its partner's weight too —
  // bitwise (w doubles exactly), not just approximately.
  const Crystal primitive = silicon_primitive();
  for (const auto& dims : {std::array<unsigned, 3>{2, 2, 2},
                           std::array<unsigned, 3>{2, 3, 4},
                           std::array<unsigned, 3>{4, 4, 4}}) {
    const auto grid = monkhorst_pack(primitive, dims[0], dims[1], dims[2]);
    const auto folded = fold_time_reversal(grid);
    EXPECT_EQ(folded.size(), grid.size() / 2);
    const double unit_weight = grid.front().weight;
    double total = 0.0;
    for (const KPoint& kp : folded) {
      EXPECT_EQ(kp.weight, 2.0 * unit_weight);
      total += kp.weight;
    }
    double grid_total = 0.0;
    for (const KPoint& kp : grid) grid_total += kp.weight;
    EXPECT_NEAR(total, grid_total, 1e-15);
  }
}

TEST(FoldTimeReversalTest, OddGridKeepsGammaSelfPaired) {
  // Odd grids contain Gamma, its own time-reversal partner: it must
  // survive the fold exactly once with its original (undoubled) weight.
  const Crystal primitive = silicon_primitive();
  const auto grid = monkhorst_pack(primitive, 3, 3, 3);
  const auto folded = fold_time_reversal(grid);
  EXPECT_EQ(folded.size(), (grid.size() + 1) / 2);  // 14 of 27
  std::size_t self_paired = 0;
  for (const KPoint& kp : folded) {
    if (kp.k.norm2() < 1e-20) {
      ++self_paired;
      EXPECT_EQ(kp.weight, grid.front().weight);
    } else {
      EXPECT_EQ(kp.weight, 2.0 * grid.front().weight);
    }
  }
  EXPECT_EQ(self_paired, 1u);
}

TEST(FoldTimeReversalTest, RepresentativesAreOriginalPointsInGridOrder) {
  // Folding selects the EARLIER point of each +-k pair, verbatim (same
  // coordinates, same label), and preserves the grid's relative order —
  // the canonical order the scatter/gather layer chunks by.
  const Crystal primitive = silicon_primitive();
  const auto grid = monkhorst_pack(primitive, 2, 3, 2);
  const auto folded = fold_time_reversal(grid);
  std::size_t cursor = 0;
  for (const KPoint& kp : folded) {
    bool found = false;
    for (std::size_t i = cursor; i < grid.size(); ++i) {
      if (grid[i].k.x == kp.k.x && grid[i].k.y == kp.k.y &&
          grid[i].k.z == kp.k.z) {
        cursor = i + 1;
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "folded point not an original grid point in order";
  }
}

TEST(FoldTimeReversalTest, FoldedGridSolvesToSameGapSummary) {
  // The physics behind the fold: H(k) and H(-k) share a spectrum for the
  // real EPM potential, so the folded grid's weighted summary equals the
  // full grid's. The band-energy integral regroups (w*e_k + w*e_{-k}
  // becomes 2w*e_k), so compare to tight tolerance, not bitwise.
  const Crystal primitive = silicon_primitive();
  const PlaneWaveBasis basis(primitive, 4.5);
  const auto grid = monkhorst_pack(primitive, 2, 2, 2);
  const auto folded = fold_time_reversal(grid);
  const auto full_structure = band_structure(basis, grid, 6);
  const auto folded_structure = band_structure(basis, folded, 6);
  const GapSummary full = find_gap(full_structure, 4);
  const GapSummary half = find_gap(folded_structure, 4);
  EXPECT_NEAR(half.vbm_ha, full.vbm_ha, 1e-12);
  EXPECT_NEAR(half.cbm_ha, full.cbm_ha, 1e-12);
  EXPECT_NEAR(half.band_energy_ha, full.band_energy_ha, 1e-12);
  EXPECT_NEAR(half.weight_sum, full.weight_sum, 1e-15);
}

class BandStructureFixture : public ::testing::Test {
 protected:
  BandStructureFixture()
      : primitive(silicon_primitive()), basis(primitive, 4.5) {}

  Crystal primitive;
  PlaneWaveBasis basis;  // 9 Ry: the classic EPM cutoff
};

TEST_F(BandStructureFixture, GammaMatchesGammaOnlySolver) {
  KPoint gamma;
  const BandsAtK at_gamma = solve_epm_at_k(basis, gamma, 8);
  const GroundState reference = solve_epm(basis, 8);
  for (std::size_t b = 0; b < 8; ++b) {
    EXPECT_NEAR(at_gamma.energies_ha[b], reference.energies_ha[b], 1e-10);
  }
}

TEST_F(BandStructureFixture, BandsAreContinuousAlongPath) {
  const auto path = fcc_kpath(kSiliconLatticeBohr, 8);
  const auto structure = band_structure(basis, path, 6);
  for (std::size_t i = 1; i < structure.size(); ++i) {
    for (std::size_t b = 0; b < 6; ++b) {
      const double jump = std::fabs(structure[i].energies_ha[b] -
                                    structure[i - 1].energies_ha[b]);
      EXPECT_LT(jump * kEvPerHa, 2.5)
          << "band " << b << " jumps at point " << i;
    }
  }
}

TEST_F(BandStructureFixture, SiliconGapsMatchCohenBergstresser) {
  const auto path = fcc_kpath(kSiliconLatticeBohr, 10);
  const auto structure = band_structure(basis, path, 6);
  const GapSummary gap = find_gap(structure, 4);
  // Indirect gap ~0.8-1.2 eV with the CBM away from Gamma.
  EXPECT_GT(gap.indirect_gap_ev(), 0.5);
  EXPECT_LT(gap.indirect_gap_ev(), 1.6);
  EXPECT_EQ(gap.vbm_label, "Gamma");
  EXPECT_NE(gap.cbm_label, "Gamma");
  // Direct gap at Gamma ~3.4 eV.
  for (const BandsAtK& at_k : structure) {
    if (at_k.kpoint.label == "Gamma") {
      const double direct =
          (at_k.energies_ha[4] - at_k.energies_ha[3]) * kEvPerHa;
      EXPECT_GT(direct, 2.8);
      EXPECT_LT(direct, 4.0);
    }
  }
}

TEST_F(BandStructureFixture, ValenceTopIsTripleDegenerateAtGamma) {
  // Diamond structure: the Gamma_25' valence top is threefold degenerate.
  KPoint gamma;
  const BandsAtK at_gamma = solve_epm_at_k(basis, gamma, 6);
  const double top = at_gamma.energies_ha[3];
  EXPECT_NEAR(at_gamma.energies_ha[2], top, 1e-6);
  EXPECT_NEAR(at_gamma.energies_ha[1], top, 1e-6);
  EXPECT_LT(at_gamma.energies_ha[0], top - 0.2);  // Gamma_1 far below
}

TEST_F(BandStructureFixture, MpGridGapMatchesPathGap) {
  // A coarse MP grid sees roughly the same indirect gap as the path scan.
  const auto grid = monkhorst_pack(primitive, 4, 4, 4);
  std::vector<BandsAtK> solved;
  for (const KPoint& kp : grid) {
    solved.push_back(solve_epm_at_k(basis, kp, 6));
  }
  const GapSummary gap = find_gap(solved, 4);
  EXPECT_GT(gap.indirect_gap_ev(), 0.3);
  EXPECT_LT(gap.indirect_gap_ev(), 2.0);
}

TEST_F(BandStructureFixture, BandWindowClampsToBasisSize) {
  // Requesting more bands than the basis holds must clamp, not throw or
  // read past the spectrum.
  KPoint gamma;
  const BandsAtK clamped =
      solve_epm_at_k(basis, gamma, basis.size() + 100);
  EXPECT_EQ(clamped.energies_ha.size(), basis.size());
  const BandsAtK full = solve_epm_at_k(basis, gamma, 0);
  ASSERT_EQ(full.energies_ha.size(), basis.size());
  for (std::size_t b = 0; b < basis.size(); ++b) {
    EXPECT_NEAR(clamped.energies_ha[b], full.energies_ha[b], 1e-10);
  }
}

TEST_F(BandStructureFixture, PartialWindowMatchesFullSpectrum) {
  // The band window runs the partial eigensolver; its energies must
  // match the full solve's lowest entries at every path point.
  const auto path = fcc_kpath(kSiliconLatticeBohr, 3);
  const auto partial = band_structure(basis, path, 6);
  const auto full = band_structure(basis, path, 0);
  ASSERT_EQ(partial.size(), full.size());
  for (std::size_t i = 0; i < partial.size(); ++i) {
    ASSERT_EQ(partial[i].energies_ha.size(), 6u);
    for (std::size_t b = 0; b < 6; ++b) {
      EXPECT_NEAR(partial[i].energies_ha[b], full[i].energies_ha[b], 1e-10)
          << "band " << b << " at point " << i;
    }
  }
}

TEST_F(BandStructureFixture, PoolParallelKLoopBitwiseMatchesSerial) {
  // The k-loop fans out one task per k-point; energies must be bitwise
  // identical to the single-threaded loop for any pool width.
  const auto path = fcc_kpath(kSiliconLatticeBohr, 4);
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original = pool.threads();
  std::vector<std::vector<BandsAtK>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    pool.resize(threads);
    runs.push_back(band_structure(basis, path, 6));
  }
  pool.resize(original);
  for (std::size_t t = 1; t < runs.size(); ++t) {
    for (std::size_t i = 0; i < path.size(); ++i) {
      for (std::size_t b = 0; b < 6; ++b) {
        ASSERT_EQ(runs[0][i].energies_ha[b], runs[t][i].energies_ha[b])
            << "band " << b << " at point " << i << " thread variant " << t;
      }
    }
  }
}

TEST_F(BandStructureFixture, SharedPotentialMatchesPerKHamiltonianBitwise) {
  // band_structure assembles V(G - G') once and writes only the kinetic
  // diagonal per k-point, then solves for energies only. Both must leave
  // the answer bitwise that of a fresh epm_hamiltonian at each k solved
  // with eigenvectors, for windows on the partial path (6), on its
  // full-solver delegation (the whole basis) and unwindowed (0), at
  // every pool width.
  std::vector<KPoint> points = fcc_kpath(kSiliconLatticeBohr, 2);
  for (const KPoint& kp : monkhorst_pack(primitive, 2, 2, 2)) {
    points.push_back(kp);
  }
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original = pool.threads();
  for (const std::size_t bands : {std::size_t{6}, basis.size(),
                                  std::size_t{0}}) {
    std::vector<std::vector<double>> expected;
    for (const KPoint& kp : points) {
      const RealMatrix h = epm_hamiltonian(basis, kp.k, "reference");
      expected.push_back(bands == 6 ? syevd_partial(h, bands).eigenvalues
                                    : syevd(h).eigenvalues);
    }
    for (const std::size_t threads : {1u, 2u, 8u}) {
      pool.resize(threads);
      const auto structure = band_structure(basis, points, bands);
      ASSERT_EQ(structure.size(), points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(structure[i].energies_ha, expected[i])
            << "point " << i << ", bands " << bands << ", " << threads
            << " threads";
      }
    }
  }
  pool.resize(original);
}

TEST_F(BandStructureFixture, TracedRunAssemblesThePotentialOnce) {
  // One potential-assembly event per band structure, then one
  // eigenvalue-only solve per k-point, each priced below the vector
  // solve it replaces.
  const auto path = fcc_kpath(kSiliconLatticeBohr, 2);
  TraceRecorder recorder;
  {
    const TraceScope scope(recorder);
    (void)band_structure(basis, path, 8);
  }
  const KernelTrace trace = recorder.take();
  std::size_t assemblies = 0;
  std::size_t solves = 0;
  const SyevdCost values = syevd_partial_cost(basis.size(), 8, false);
  for (const TraceEvent& event : trace.events) {
    if (event.name == "bands.assembly") {
      ++assemblies;
      EXPECT_EQ(event.stage, "");
    }
    if (event.cls == KernelClass::kSyevd) {
      ++solves;
      EXPECT_EQ(event.name, "syevd.partial.values");
      EXPECT_EQ(event.flops, values.flops);
      EXPECT_EQ(event.bytes, values.bytes);
    }
  }
  EXPECT_EQ(assemblies, 1u);
  EXPECT_EQ(solves, path.size());
  EXPECT_LT(values.flops, syevd_partial_cost(basis.size(), 8).flops);
  EXPECT_LT(values.bytes, syevd_partial_cost(basis.size(), 8).bytes);
}

TEST(FoldingTest, SupercellGammaReproducesPrimitiveCosetGap) {
  // Band folding: the 8-atom conventional cell at Gamma spans exactly the
  // primitive cell's {Gamma, X_x, X_y, X_z} cosets, so its 16-valence gap
  // summary must reproduce the primitive 4-valence summary over those
  // k-points. The Gamma-coset block is the identical matrix (VBM agrees
  // to machine precision); the X blocks differ only by the Gamma-centred
  // basis truncation (~2e-4 Ha at 9 Ry).
  const double ecut_ha = 4.5;
  const Crystal super8 = Crystal::silicon_supercell(8);
  const PlaneWaveBasis super_basis(super8, ecut_ha);
  KPoint gamma;
  const BandsAtK folded = solve_epm_at_k(super_basis, gamma, 20);
  const GapSummary folded_gap = find_gap({folded}, 16);

  const Crystal primitive = silicon_primitive();
  const PlaneWaveBasis prim_basis(primitive, ecut_ha);
  const double unit = 2.0 * std::numbers::pi / kSiliconLatticeBohr;
  std::vector<KPoint> cosets(4);
  cosets[1].k = {unit, 0.0, 0.0};
  cosets[2].k = {0.0, unit, 0.0};
  cosets[3].k = {0.0, 0.0, unit};
  const auto solved = band_structure(prim_basis, cosets, 6);
  const GapSummary primitive_gap = find_gap(solved, 4);

  EXPECT_NEAR(folded_gap.vbm_ha, primitive_gap.vbm_ha, 1e-10);
  EXPECT_NEAR(folded_gap.cbm_ha, primitive_gap.cbm_ha, 1e-3);
  EXPECT_NEAR(folded_gap.indirect_gap_ev(),
              primitive_gap.indirect_gap_ev(), 0.03);
}

TEST(FindGapTest, RejectsDegenerateInput) {
  EXPECT_THROW(find_gap({}, 4), NdftError);
  BandsAtK only_valence;
  only_valence.energies_ha = {1.0, 2.0};
  EXPECT_THROW(find_gap({only_valence}, 2), NdftError);
}

TEST(FindGapTest, RejectsZeroValence) {
  // Regression: valence == 0 used to wrap `valence - 1` to SIZE_MAX and
  // read energies_ha out of bounds; it must throw instead.
  BandsAtK at_k;
  at_k.energies_ha = {1.0, 2.0, 3.0};
  EXPECT_THROW(find_gap({at_k}, 0), NdftError);
}

TEST(FindGapTest, WeightsFlowIntoBandEnergy) {
  // Two k-points with different weights: the summary integrates
  // 2 * sum of occupied energies against the normalised weights.
  BandsAtK heavy;
  heavy.kpoint.weight = 0.75;
  heavy.energies_ha = {-1.0, 2.0};
  BandsAtK light;
  light.kpoint.weight = 0.25;
  light.energies_ha = {-3.0, 1.0};
  const GapSummary gap = find_gap({heavy, light}, 1);
  EXPECT_NEAR(gap.weight_sum, 1.0, 1e-15);
  // 0.75 * 2 * (-1) + 0.25 * 2 * (-3) = -3.0.
  EXPECT_NEAR(gap.band_energy_ha, -3.0, 1e-12);
  EXPECT_NEAR(gap.vbm_ha, -1.0, 1e-15);
  EXPECT_NEAR(gap.cbm_ha, 1.0, 1e-15);
}

}  // namespace
}  // namespace ndft::dft
