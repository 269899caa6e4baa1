"""Differentially private image synthesis at desk scale.

Two-stage training of a compact denoising diffusion model: privatized
central-image queries warm the model up, DP-SGD fine-tunes it on the
sensitive images, and a Renyi-DP accountant tracks and calibrates the
budget end to end.
"""

from .accounting import (
    MechanismEvent,
    PrivacySpec,
    RdpCurve,
    calibrate_sigma_f,
    compose,
    rdp_to_dp,
    sgm_rdp,
)
from .augment import AugmentationBag, apply_chain, default_bag
from .central import (
    CentralConfig,
    CentralImageSet,
    clip_rows,
    mode_from_noisy_histogram,
    pixel_histogram,
    poisson_subsample,
    query_central_set,
    query_mean_image,
    query_mode_image,
)
from .core import (
    BudgetExhaustedError,
    InvalidArgumentError,
    LabeledDataset,
    NumericError,
    RngSeed,
    gaussian_noise,
)
from .data_io import FormatError, generate_toy_glyphs, load_container, read_idx, save_container, write_idx
from .diffusion import (
    DenoiserParams,
    NoiseSchedule,
    ParamManifest,
    denoiser_forward,
    forward_noise,
    init_params,
    load_checkpoint,
    loss_and_weighted_grad_sum,
    sample,
    save_checkpoint,
)
from .dpsgd import DpSgdConfig, TrainHooks, dp_step, train
from .metrics import FeatureExtractor, frechet_distance, train_probe_classifier
from .pipeline import PipelineConfig, run_all, run_stage1, run_stage2

__version__ = "0.1.0"
