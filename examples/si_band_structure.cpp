// Computes the classic Cohen-Bergstresser silicon band structure on the
// primitive FCC cell along L -> Gamma -> X -> K -> Gamma through the
// Engine API, prints an ASCII rendering and the direct/indirect gaps.
//
//   ./si_band_structure [ecut_ry] [segments]   (defaults: 9 Ry, 10)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/engine.hpp"

using namespace ndft;

int main(int argc, char** argv) {
  api::BandStructureJob job;
  if (argc > 1) job.ecut_ry = std::strtod(argv[1], nullptr);
  if (argc > 2) job.segments = static_cast<unsigned>(
      std::strtoul(argv[2], nullptr, 10));
  job.bands = 8;          // 4 valence + 4 conduction
  job.valence_bands = 4;  // primitive cell: 2 atoms x 4 electrons / 2

  api::Engine engine;
  const api::JobResult result = engine.run(job);
  if (!result.ok()) {
    std::fprintf(stderr, "si_band_structure: %s\n",
                 result.error_message.c_str());
    for (const std::string& detail : result.error_details) {
      std::fprintf(stderr, "  - %s\n", detail.c_str());
    }
    return 1;
  }
  const api::BandStructurePayload& bands = *result.band_structure;
  std::printf("primitive Si cell: %zu plane waves at %.1f Ry\n",
              bands.basis_size, job.ecut_ry);

  // Reference energies to the valence-band maximum.
  const double vbm = bands.vbm_ha;
  std::printf("\n%-8s", "k");
  for (std::size_t b = 0; b < job.bands; ++b) {
    std::printf("  band%zu", b);
  }
  std::printf("   (eV relative to VBM)\n");
  for (const api::BandsAtKPayload& at_k : bands.path) {
    std::printf("%-8s", at_k.label.empty() ? "." : at_k.label.c_str());
    for (std::size_t b = 0; b < at_k.energies_ha.size(); ++b) {
      std::printf(" %6.2f", (at_k.energies_ha[b] - vbm) * dft::kEvPerHa);
    }
    std::printf("\n");
  }

  std::printf("\nindirect gap: %.3f eV (VBM at %s, CBM at %s)\n",
              bands.indirect_gap_ev,
              bands.vbm_label.empty() ? "path" : bands.vbm_label.c_str(),
              bands.cbm_label.empty() ? "path" : bands.cbm_label.c_str());
  std::printf("direct gap at Gamma: %.3f eV\n", bands.direct_gap_gamma_ev);
  std::printf("(experiment: indirect 1.12 eV, direct ~3.4 eV; "
              "Cohen-Bergstresser EPM reproduces both near these values)\n");
  return 0;
}
