"""Probabilistic voting rules over ranked ballots, worst-case distortion and
proportional-fairness evaluation, and instance-optimal optimization."""

from .lowerbounds import (
    FixtureBundle,
    FixtureWitness,
    gen_cyclic_special,
    gen_nash_lb,
    gen_sqrt_lb,
    harmonic_distortion_fixture,
    harmonic_pf_fixture,
    select_sqrt_witness,
)
from .metrics import (
    CoreReport,
    DistortionReport,
    OracleScaleError,
    core_check,
    distortion,
    distortion_bruteforce,
    nash_distortion_smallscale,
    nash_opt,
    nash_welfare,
    pf_distortion,
    pf_distortion_bruteforce,
    pf_payoffs,
    pf_value,
    social_welfare,
)
from .mwu import mwu_solve
from .optimize import (
    FeasibleRegion,
    OptimizationResult,
    guarded_region,
    optimize_distortion,
    optimize_pf,
    pf_bound,
    pf_region,
    pf_subgradient,
    project,
)
from .profiles import (
    CertificationError,
    ConsistencyViolation,
    Distribution,
    PreferenceProfile,
    ProfileFormatError,
    UtilityClass,
    UtilityProfile,
    check_consistency,
    class_contains,
    from_rankings,
    parse_profile,
    prefix_mass,
    random_consistent_utilities,
    random_profile,
    serialize_profile,
)
from .rules import (
    PointVotingWeights,
    SupportingSizeWeights,
    TwoAltObjective,
    harmonic_number,
    harmonic_point_weights,
    harmonic_rule,
    harmonic_scores,
    nash_mixing_curve,
    point_voting_rule,
    supporting_size_rule,
    two_alt_rule,
    two_block_profile,
)
from .stable import (
    Committee,
    LotteryRound,
    StableLottery,
    committee_size,
    committee_stability_factor,
    compute_stable_lottery,
    distribution_from_lottery,
    find_stable_committee,
    lottery_marginals,
    stability_certificate,
    stable_committee_rule,
    stable_lottery_rule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
