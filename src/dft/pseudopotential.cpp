#include "dft/pseudopotential.hpp"

#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/kernel_trace.hpp"

namespace ndft::dft {
namespace {

/// Real spherical harmonics * radial form for the 4 KB channels.
/// Channel 0: s. Channels 1-3: p_x, p_y, p_z.
double channel_angular(std::size_t channel, const Vec3& g, double gnorm) {
  const double y00 = 1.0 / std::sqrt(kFourPi);
  if (channel == 0) {
    return y00;
  }
  if (gnorm < 1e-12) {
    return 0.0;  // p projectors vanish at G = 0
  }
  const double y1 = std::sqrt(3.0 / kFourPi);
  switch (channel) {
    case 1: return y1 * g.x / gnorm;
    case 2: return y1 * g.y / gnorm;
    case 3: return y1 * g.z / gnorm;
    default: NDFT_ASSERT(false); return 0.0;
  }
}

}  // namespace

KbProjectors::KbProjectors(const PlaneWaveBasis& basis, double sigma_bohr)
    : basis_(&basis) {
  NDFT_REQUIRE(sigma_bohr > 0.0, "projector width must be positive");
  const auto& g = basis.gvectors();
  const auto& atoms = basis.crystal().positions();
  const std::size_t n_proj = atoms.size() * kProjectorsPerAtom;
  coefficients_ = ComplexMatrix(n_proj, g.size());
  couplings_.resize(n_proj);

  // Model coupling constants (Hartree): attractive s, repulsive p; the
  // split mirrors typical norm-conserving Si pseudopotentials.
  constexpr double kCouplingS = -0.6;
  constexpr double kCouplingP = 0.35;

  for (std::size_t a = 0; a < atoms.size(); ++a) {
    for (std::size_t ch = 0; ch < kProjectorsPerAtom; ++ch) {
      const std::size_t p = a * kProjectorsPerAtom + ch;
      couplings_[p] = (ch == 0) ? kCouplingS : kCouplingP;
      for (std::size_t i = 0; i < g.size(); ++i) {
        const double gnorm = std::sqrt(g[i].g2);
        // Gaussian radial form: s ~ exp(-g^2 s^2/2), p ~ g exp(-g^2 s^2/2).
        double radial =
            std::exp(-0.5 * g[i].g2 * sigma_bohr * sigma_bohr);
        if (ch != 0) {
          radial *= gnorm * sigma_bohr;
        }
        const double angular = channel_angular(ch, g[i].g, gnorm);
        // Structure phase anchors the projector on its atom.
        const double phase = -g[i].g.dot(atoms[a]);
        coefficients_(p, i) = radial * angular *
                              Complex{std::cos(phase), std::sin(phase)};
      }
    }
  }
}

std::vector<Complex> KbProjectors::project(
    const std::vector<Complex>& in) const {
  NDFT_REQUIRE(in.size() == basis_->size(),
               "wavefunction length must match the basis");
  std::vector<Complex> result(count());
  for (std::size_t p = 0; p < count(); ++p) {
    Complex acc{};
    const Complex* row = coefficients_.row(p);
    for (std::size_t i = 0; i < in.size(); ++i) {
      acc += std::conj(row[i]) * in[i];
    }
    result[p] = acc;
  }
  return result;
}

void KbProjectors::apply(const std::vector<Complex>& in,
                         std::vector<Complex>& out) const {
  NDFT_REQUIRE(in.size() == basis_->size(),
               "wavefunction length must match the basis");
  KernelTimer trace(KernelClass::kPseudopotential, "nonlocal");
  {
    const std::size_t coefficients = count() * in.size();
    trace.set_dims(count(), in.size(), 0);
    trace.set_work(16ull * coefficients,
                   2ull * coefficients * sizeof(Complex));
    trace.set_io(in.size() * sizeof(Complex), in.size() * sizeof(Complex));
  }
  if (out.size() != in.size()) {
    out.assign(in.size(), Complex{});
  }
  const std::vector<Complex> amplitudes = project(in);
  for (std::size_t p = 0; p < amplitudes.size(); ++p) {
    const Complex weight = couplings_[p] * amplitudes[p];
    const Complex* row = coefficients_.row(p);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] += weight * row[i];
    }
  }
}

double PseudoSizing::grid_density() const {
  NDFT_REQUIRE(ecut_ha > 0.0, "cutoff must be positive");
  const double kmax = std::sqrt(2.0 * ecut_ha);
  const double spacing = std::numbers::pi / kmax;
  return 1.0 / (spacing * spacing * spacing);
}

std::size_t PseudoSizing::sphere_points(bool dense) const {
  const double r = cutoff_radius_bohr;
  const double volume = 4.0 / 3.0 * std::numbers::pi * r * r * r;
  double density = grid_density();
  if (dense) {
    density *= static_cast<double>(dense_factor) * dense_factor *
               dense_factor;
  }
  return static_cast<std::size_t>(volume * density);
}

Bytes PseudoSizing::bytes_per_atom() const {
  const std::size_t dense_points = sphere_points(/*dense=*/true);
  const Bytes projector_values =
      static_cast<Bytes>(projectors) * dense_points * sizeof(double);
  const std::size_t q_pairs = projectors * (projectors + 1) / 2;
  const Bytes augmentation =
      static_cast<Bytes>(q_pairs) * dense_points * sizeof(double);
  const Bytes radial_tables =
      static_cast<Bytes>(projectors) * radial_points * sizeof(double);
  const Bytes coupling_matrix =
      static_cast<Bytes>(projectors) * projectors * sizeof(double);
  const Bytes index_map =
      static_cast<Bytes>(dense_points) * sizeof(std::int32_t);
  const Bytes header = 64;  // atom id, species, extents, counts
  return projector_values + augmentation + radial_tables + coupling_matrix +
         index_map + header;
}

}  // namespace ndft::dft
