"""Exact finite-state toolkit for asymptotically mean stationary sources
and channels: hookups, cascades, stationary and quasi-stationary means, and
a classifier for the stability hierarchy
stationary < quasi-stationary < recurrent-AMS < AMS.
"""

from .seqcore import (
    Alphabet,
    CylinderEvent,
    RectEvent,
    complement,
    difference,
    empty_event,
    event,
    event_algebra,
    full_event,
    intersect,
    product_alphabet,
    refine,
    shift_preimage,
    union,
)
from .sources import (
    AmsEvidence,
    CesaroLimitMatrix,
    ClassDecomposition,
    ErgodicVerdict,
    FsmSource,
    RecurrenceVerdict,
    SourceVerdict,
    Verdict,
    are_equivalent,
    asymptotic_support,
    asymptotically_dominates,
    cesaro_limit,
    class_decomposition,
    classify_source,
    cyl_prob,
    dominates,
    event_prob,
    is_ergodic,
    is_recurrent,
    is_stationary,
    recurrence_defect,
    shifted_source,
    stationary_mean,
)
from .channels import (
    ConditionalKernelTable,
    FsmChannel,
    JointSource,
    LassoInput,
    cascade,
    channel_cyl_prob,
    channel_output_measure,
    hookup,
    input_marginal,
    kernel_stationary_mean,
    markov_channel,
    nu_i_table,
    nu_partial_mean_table,
    output_marginal,
    quasi_stationary_mean,
    rect_prob,
)
from .classify import (
    ChannelVerdict,
    TheoremCheckReport,
    channel_stationarity_witness,
    check_qs_mean_ergodic_identities,
    classify_channel,
    is_channel_ams_wrt,
    is_channel_ergodic_wrt,
    is_channel_recurrent_wrt,
    is_channel_stationary,
    is_quasi_stationary_wrt,
    run_theorem_suite,
)
from .oracle import (
    EmpiricalTable,
    brute_force_event_prob,
    cesaro_partial,
    monte_carlo,
)

__all__ = [name for name in dir() if not name.startswith("_")]
