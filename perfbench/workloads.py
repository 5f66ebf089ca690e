"""Seeded inputs and expected reports of the benchmark workloads.

Each workload is one `odegeom` subcommand.  `make_inputs(name, seed)` turns
the benchmark seed into the command line and the input files the program
sees; nothing else about the seed reaches the program.  The expected tables
list every check name a report must contain and the status it should have.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

# Box the seeded `radon --point` jets are drawn from.
RADON_JET_BOX = (
    ("y", 0.8, 1.3),
    ("p", -0.2, 0.3),
    ("q", 1.7, 2.4),
    ("r", -0.2, 0.3),
    ("s", -0.2, 0.4),
)

# The user equation: -(a)*r^3/q^2 + 5*r*s/q + (b)*s^2/r.  Its frame function
# is P = q^(1/2) r^(b/5), and the exponent fit snaps to denominators <= 48.
USER_B_OVER_5_MAX_DENOMINATOR = 48
USER_ODE_FILE = "user.ode"

_PENTAD_5 = (
    "coframe_frame_inverse_identity",
    "p_equation",
    "q_equation",
    "residual_identity_1",
    "residual_identity_2",
    "residual_identity_3",
)

_PENTAD_CONICS5_CATALOGUE = (
    "P_equals_q_1_2",
    "Q_matches_expected",
    "coefficients_match_expected",
    "coframe_matches_expected",
)

_GEOM_5 = (
    "bianchi_first_identity",
    "first_integral_gyy",
    "killing_prolongation",
    "metric_differentiation_chain",
    "metric_inverse_identity",
    "metric_lower_matches_expected",
    "metric_routes_agree",
    "metric_upper_matches_expected",
    "riemann_symmetries",
    "signature_split_3_2",
)

_GEOM_GN5 = ("ricci_not_zero", "scalar_curvature_zero")

# conics5-only checks of the geom (Einstein, connection) and so3 suites
_GEOM_SO3_CONICS5 = (
    "chi_spans_dy_dp_only",
    "connection_alpha_expected",
    "connection_delta_expected",
    "connection_frame_compatibility",
    "connection_gamma_expected",
    "connection_psi_expected",
    "einstein_ricci_proportional",
    "gtensor_frame_pairing_consistent",
    "gtensor_norm_35_12",
    "gtensor_quadratic_trace_7_12",
    "gtensor_raw_symmetry",
    "gtensor_trace_free_coordinates",
    "gtensor_trace_free_exact",
    "harmonic_coordinates",
    "identity_chi_decomposition",
    "identity_chi_symmetrisation",
    "identity_curvature_symmetric_part",
    "identity_norm_35_12_points",
    "identity_parallel_tensor",
    "identity_quartic_normalisation",
    "identity_riemann_eigen_7_4",
    "identity_trace_7_12_points",
    "null_surface_gyy_upper",
    "operator_row_p",
    "operator_row_q",
    "operator_row_r",
    "operator_row_s",
    "operator_row_y",
    "scalar_curvature_minus60",
)

_RADON = (
    "conic_circle_from_jet",
    "conic_degenerate_jet_rejected",
    "conic_jet_roundtrip",
    "conic_parabola_from_jet",
    "eigenvalue_relation_mu_6lam2_R10",
    "fd_gradient_step_doubling",
    "fd_hessian_symmetry",
    "lambda_point_to_point_spread",
    "ode_integration_matches_closed_form",
    "ode_integration_matches_conic",
    "quadrature_order_stability",
    "reparametrisation_invariance",
    "system_residual_f_1",
    "system_residual_f_x",
    "system_residual_f_xy",
    "system_residual_f_y",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    expected: Tuple[Tuple[str, str], ...]  # (check name, expected status), sorted by name


def _all_pass(*groups: Tuple[str, ...]) -> Tuple[Tuple[str, str], ...]:
    names = sorted(n for group in groups for n in group)
    return tuple((n, "pass") for n in names)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "conics5-all",
            "only workload running so3 and all four suites; solve_pentad runs 4x, "
            "metric_from_frame 3x, build_G 2x, so session/caching changes show here only",
            _all_pass(_PENTAD_5, _PENTAD_CONICS5_CATALOGUE, _GEOM_5, _GEOM_SO3_CONICS5, _RADON),
        ),
        Workload(
            "gn5-geom",
            "one solve, no so3 or radon; dominated by expr.diff building the dg/ddg "
            "tables and scalar evaluation for curvature at 20 points",
            _all_pass(_GEOM_5, _GEOM_GN5),
        ),
        Workload(
            "conics5-radon",
            "seeded --point: 1,295 quadratures, ~78k scalar Evaluator calls. Known "
            "defect: eigenvalue_relation_mu_6lam2_R10 fails at such jets (ill-conditioned "
            "mu,c fit), so checks_ok_ratio is 15/16",
            # built-ins are expected to pass everything; the defect above
            # shows as one status mismatch per report
            _all_pass(_RADON),
        ),
        Workload(
            "user-pentad",
            "seeded .ode file with no catalogue entry: file loader, 5.7x larger "
            "DAGs, vectorised eval_points; residual_identity_1..3 fail by design",
            tuple(
                (n, "fail" if n.startswith("residual_identity_") else "pass")
                for n in _PENTAD_5
            ),
        ),
    )
}


# The workloads BENCHMARK.json names.  conics5-all is left out: a report
# takes 20-27 s on a shared 2-vCPU Xeon VM, so a run short enough for the
# benchmark's time budget holds one report, and over ten seeds its report_s
# spread (interquartile range / median) was 0.17 against the largest bound,
# 0.25.  It stays runnable by name, for the session and caching work only it
# shows.  gn5-geom is left out too: at 40-s runs its ten-seed report_s
# spread was 0.27 and 0.34 in two sets of runs of the same code on a shared
# host, past the 0.25 bound, and a longer run leaves no time budget for a
# third workload.  The layers it exercises are measured on the other two,
# except geom.curvature; it stays runnable by name.
BENCHMARKED = ("conics5-radon", "user-pentad")


def _seed_rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random(f"odegeom-perfbench/{workload}/{seed}")


def _radon_jet(rng: random.Random) -> Dict[str, float]:
    jet = {}
    for name, lo, hi in RADON_JET_BOX:
        jet[name] = round(rng.uniform(lo, hi), 6)
    return jet


def _user_coefficients(rng: random.Random) -> Tuple[Fraction, Fraction]:
    """(a, b) with b != 0 and b/5 of reduced denominator <= 48."""
    a = Fraction(rng.randint(1, 80), rng.randint(1, 18))
    den = rng.randint(2, USER_B_OVER_5_MAX_DENOMINATOR)
    num = rng.choice([n for n in range(-den + 1, den) if n != 0])
    b = 5 * Fraction(num, den)
    return a, b


def _user_ode_text(a: Fraction, b: Fraction) -> str:
    return (
        "# seeded user equation: P = q^(1/2) r^(b/5), no catalogue entry\n"
        "name  = user\n"
        "order = 5\n"
        f"rhs   = -({a})*r^3/q^2 + 5*r*s/q + ({b})*s^2/r\n"
    )


def make_inputs(workload: str, seed: int) -> Tuple[list, Dict[str, str]]:
    """(argv, files): the odegeom command line (without --json) and the
    input files it names, as {file name: text}, relative to the report's
    working directory."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choices: {sorted(WORKLOADS)}")
    rng = _seed_rng(workload, seed)
    cli_seed = str(rng.randrange(1, 2 ** 31))
    if workload == "conics5-all":
        return ["all", "--ode", "conics5", "--seed", cli_seed], {}
    if workload == "gn5-geom":
        return ["geom", "--ode", "gn5", "--seed", cli_seed], {}
    if workload == "conics5-radon":
        jet = _radon_jet(rng)
        point = ",".join(f"{k}={v!r}" for k, v in jet.items())
        return ["radon", "--ode", "conics5", "--point", point, "--seed", cli_seed], {}
    a, b = _user_coefficients(rng)
    files = {USER_ODE_FILE: _user_ode_text(a, b)}
    return ["pentad", "--ode", USER_ODE_FILE, "--seed", cli_seed], files
