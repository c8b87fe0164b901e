"""Concrete spectral sequence instances: seeds, rules, scripts, and oracles."""

from .hochschild import hh_bruteforce
from .bokstedt import (bokstedt_algebra, bokstedt_e2_page, bokstedt_einf_page,
                       bokstedt_rule, bokstedt_run)
from .v1 import (astar_series, h_thh_series, poincare_identity_check,
                 v1_thh_presentation, v1_thh_series)
from .tate import (TOWERS, SSInstance, Stage, TateForm, instance_region,
                   relabeling_agreement, run_instance, tower_form,
                   tower_instance)
from .circle import lemma_78_check, lemma_79_check, s1_einf, s1_limits

__all__ = [
    "hh_bruteforce", "bokstedt_algebra", "bokstedt_e2_page",
    "bokstedt_einf_page", "bokstedt_rule", "bokstedt_run", "astar_series",
    "h_thh_series", "poincare_identity_check", "v1_thh_presentation",
    "v1_thh_series", "TOWERS", "SSInstance", "Stage", "TateForm",
    "instance_region", "relabeling_agreement", "run_instance", "tower_form",
    "tower_instance", "lemma_78_check", "lemma_79_check", "s1_einf",
    "s1_limits",
]
