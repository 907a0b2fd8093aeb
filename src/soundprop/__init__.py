"""Latent-grid encoding of precomputed sound-propagation parameters.

The package is organized as a numpy library: scenes and line-of-sight
queries (``scene``), the geodesic/synthetic ground-truth oracle
(``oracle``), impulse-response parameter extraction (``irparams``),
trainable latent grids (``latentfield``), symmetric decoders
(``decoders``), the training harness (``training``), metrics and cost
accounting (``evalkit``), the query and rendering runtime (``runtime``),
artifact file formats (``fileio``), and a pipeline CLI (``cli``).
"""

from .decoders import make_distance_decoder
from .errors import (
    ConfigurationError,
    DegenerateGradientError,
    DivergenceError,
    FormatError,
    InputError,
    NoArrivalError,
    SoundPropError,
    UndefinedDecayError,
)
from .evalkit import CostReport, ablation_run, cost_report, mae_field
from .irparams import (
    AcousticParamSet,
    ImpulseResponse,
    arrival_and_distance,
    decay_time,
    doa_from_samples,
    extract_params,
    fd_derivative,
    level_lr_matched,
    schroeder_curve,
    window_level,
)
from .latentfield import InterpBatch, LatentGrid, init_latent_grid, interp_points
from .oracle import (
    FieldVolume,
    bake_source,
    doa_field,
    geodesic_field,
    synth_acoustic_fields,
    synth_ir,
)
from .runtime import (
    ReferenceIRSet,
    RenderParams,
    SpeakerLayout,
    default_reference_irs,
    derive_l_lr,
    dry_gain,
    octahedral_layout,
    query_params,
    render_offline,
    spatialize_wet,
    vbap_gains,
    wet_weights,
)
from .scene import (
    RegionAcoustics,
    SceneSpec,
    VoxelScene,
    build_scene,
    lines_of_sight,
)
from .training import (
    Adam,
    Dataset,
    ModelBundle,
    TrainConfig,
    build_dataset,
    evaluate_mae,
    make_bundle,
    make_splits,
    predict_fields,
    sample_sources,
    train,
)

__version__ = "0.1.0"
