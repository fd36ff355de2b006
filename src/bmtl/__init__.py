"""Matrix-weighted Bourgain-Morrey Triebel-Lizorkin analysis on a sampled torus."""

from .grid import TorusGrid
from .fields import SampledField, SpectralField, from_spectral, quad_integral, to_spectral
from .dyadic import CubeRange, DyadicCube, cubes_at_level, locate
from .coeffseq import CoeffSequence
from .lpa import (AdmissiblePair, InhomPartition, band_filter, bessel_potential,
                  h2_sobolev_norm, holder_zygmund_norm, make_admissible_pair,
                  make_inhom_partition)
from .weights import (MatrixWeight, ReducingFamily, WeightDiagnostics,
                      ap_characteristic, ap_dimensions, diagnose, doubling_exponent,
                      reducing_operators, sandwich_constants, strong_doubling_constant,
                      weight_gallery)
from .spaces import (CubewiseWeighting, NormReport, PointwiseWeighting, SpaceParams,
                     approx_norm, averaging, bm_norm, bm_seq_norm, glambda_norm,
                     hl_maximal, lusin_norm, peetre_norm, seq_norm, tl_norm)
from .coeff import (ADProfile, AtomParams, MoleculeParams, ad_apply, ad_weight,
                    atom_rearrange, molecule_check, phi_synthesis, phi_transform)
from .wavelets import wavelet_analyze, wavelet_synthesize
from .operators import (ParaPieces, SeparatedSymbol, SymbolClassParams, SymbolGrid,
                        cz_kernel_check, czs_seminorm, elementary_symbol,
                        hilbert_riesz_apply, hormander_seminorm, multiplier_apply,
                        paradecompose, psdo_apply)

__version__ = "0.1.0"
