// The Tukey taper used for chirp shaping.
#pragma once

namespace echoimage::dsp {

/// Tukey (tapered cosine) window at normalized position u in [0, 1]:
/// cosine tapers over the first and last alpha/2 of the span, flat in
/// between. `alpha` is clamped to [0, 1]; 0 is rectangular and 1 is the
/// Hann window. Outside [0, 1] the window is zero.
[[nodiscard]] double tukey_window(double u, double alpha);

}  // namespace echoimage::dsp
