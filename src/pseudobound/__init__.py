"""Noise-corrected source-guided self-learning for pair verification.

The package follows one bound end to end: a corrected loss that absorbs
asymmetric pseudo-label noise, an alpha-weighted mix of target and source
risks, exact ERM over decision stumps, empirical class-divergence and MMD
measurements, and a self-learning loop whose pseudo-labels come from
density clustering.  `bound` assembles the generalization bound,
validates it by Monte Carlo trials and checks its lemmas against exact
population risks; `pipeline` runs the practice loop and ablations.
"""

from .bound import (
    TRIAL_CSV_COLUMNS,
    BoundInputs,
    BoundReport,
    ConcentrationRow,
    Lemma2Report,
    TheoremTrialRow,
    TheoremValidation,
    assemble_bound,
    check_lemma2,
    check_lemma3_concentration,
    complexity_term,
    dd_term,
    default_mu_grid,
    hoeffding_rhs,
    noise_term,
    validate_theorem,
    write_trial_csv,
)
from .config import (
    ExperimentConfig,
    Toggles,
    default_experiment_config,
    default_toggle_grid,
)
from .discrepancy import (
    align_moments,
    h_delta_h_distance,
    ideal_joint,
    median_heuristic_bandwidth,
    mmd_squared,
)
from .domains import (
    AffineMap,
    DomainSpec,
    PairSet,
    PairStrategy,
    SampleSet,
    derive_seed,
    draw_pair_process,
    generate_domain,
    make_rng,
    similarity_from_members,
    unit_normalize,
)
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    EmptyInputError,
    InsufficientDataError,
    InvalidNoiseError,
    NumericError,
    PipelineError,
    PseudoboundError,
    UndefinedRateError,
)
from .noise import (
    NO_NOISE,
    NoiseEstimate,
    NoiseModel,
    corrected_costs,
    corrected_loss,
    corrupt_labels,
    estimate_noise_rates,
    zero_m_costs,
    zero_m_loss,
)
from .pipeline import (
    AblationCell,
    AblationTable,
    ExperimentResult,
    IterationRecord,
    PipelineModel,
    run_ablation,
    run_self_learning,
)
from .practice import (
    LOGISTIC,
    MAE,
    NOISE,
    THRESHOLDED_LOGISTIC,
    DbscanParams,
    FilterReport,
    LinearLearnerConfig,
    LinearModel,
    batch_objective_and_grad,
    dbscan,
    filter_top_p,
    per_sample_losses,
    pseudo_label_from_clusters,
    train_linear,
    tukey_fence,
)
from .risk import (
    RiskConfig,
    corrected_empirical_risk_target,
    empirical_disagreement,
    empirical_risk_true,
    exact_risks,
    expected_risk,
    fit_plain,
    fit_source_guided,
    fit_target_corrected,
    min_exact_risk,
    source_guided_risk,
)
from .stumps import (
    StumpHypothesis,
    erm,
    random_stump,
    vc_dimension,
)

__version__ = "0.1.0"
