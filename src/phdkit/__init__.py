"""Desk-scale toolkit for paired-hypotheses domain discrepancy analysis."""

__version__ = "0.1.0"

from .adapt import SelectConfig, SelectionOutcome, coral, select_sources, select_sources_many
from .bounds import (
    BoundReport,
    RademacherEstimate,
    Term,
    bound_ineq1,
    bound_ineq2,
    bound_ineq3,
    bound_thm1,
    bound_thm3,
    bound_thm4,
    bound_thm6_margin,
    hoeffding_term,
    lemma1_report,
    rademacher,
    thm2_dev_report,
)
from .data import (
    Dataset,
    SplitSpec,
    add_feature_noise,
    gen_gaussian_pair,
    read_csv,
    read_idx,
    split,
    write_csv,
    write_idx,
)
from .discrepancy import (
    DiscrepancyReport,
    StumpClass,
    dh_adv,
    dh_exact,
    disc_exact,
    l1_hist,
    phd,
    sdisc_adv,
    sdisc_exact,
    stump_erm,
    w1_exact,
)
from .errors import (
    CapacityError,
    ConfigError,
    ContractError,
    DegenerateInputError,
    FormatError,
    PhdkitError,
    TrainingError,
)
from .models import (
    Arch,
    Hypothesis,
    LossSpec,
    TrainConfig,
    accuracy,
    constant_hypothesis,
    empirical_risk,
    grad_check,
    linear_arch,
    linear_hypothesis,
    load_hypothesis,
    margin,
    mlp_arch,
    predict,
    save_hypothesis,
    scores,
    stump_hypothesis,
    train_erm,
    zero_one,
)
from .semisup import SelfTrainResult, train_self
from .tritrain import AgreementSet, TriTrainConfig, TriTrainResult, build_tpl, tritrain_round
