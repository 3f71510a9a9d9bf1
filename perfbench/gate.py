"""Correctness gate applied to every benchmark run.

Every outcome is recomputed independently of the package: the branch of
the A -> B -> C chain from (T, A, B), whether the Beta fusion is defined
and which error it raises if not, the combined trust as the posterior
Beta mean alpha / (alpha + beta) of the moment-matched sources, and the
decision from R = max(0, T - C) and the evaluating node's appetite.
Each check returns a list of problems; an empty list means the run
passed.
"""
from __future__ import annotations

import hashlib

import numpy as np

# Clamp of the source means before the moment inversion, as documented
# by the package (fusion.MEAN_EPSILON); restated so the oracle below does
# not call into the code it checks.
MEAN_EPSILON = 1e-6
POSTERIOR_TOLERANCE = 1e-9
MAX_PROBLEMS = 20
# matrices.csv holds 4 decimal places, so a parsed cell may differ from
# the value it renders by half a unit in the last place.
RENDER_TOLERANCE = 0.5e-4 * (1 + 1e-9)


def expected_fusion(direct, indirect) -> tuple[str | None, float | None]:
    """(error kind, None) when no posterior exists, else (None, its mean).

    The sources are matched to Beta(alpha, beta) by their moments, which
    needs variance < m(1 - m) (InvalidVarianceError otherwise); the
    posterior Beta(aA + aB - 1, bA + bB - 1) needs both shapes positive
    (DegeneratePosteriorError otherwise).
    """
    shapes = []
    for source in (direct, indirect):
        m = min(max(source.mean, MEAN_EPSILON), 1.0 - MEAN_EPSILON)
        bound = m * (1.0 - m)
        if source.variance >= bound:
            return "InvalidVarianceError", None
        alpha = m * (bound / source.variance - 1.0)
        shapes.append((alpha, alpha * (1.0 - m) / m))
    (alpha_a, beta_a), (alpha_b, beta_b) = shapes
    alpha = alpha_a + alpha_b - 1.0
    beta = beta_a + beta_b - 1.0
    if alpha <= 0.0 or beta <= 0.0:
        return "DegeneratePosteriorError", None
    return None, alpha / (alpha + beta)


def check_outcomes(rows) -> list[str]:
    """Check (required, direct, indirect, max_risk, outcome, combined, risk) rows.

    outcome is the Decision's value, or the kind of the fusion error the
    request raised.  A request that A or B clears must carry no C and no
    risk; one that falls through must raise the error the oracle
    expects, or carry the oracle's C to 1e-9, R = max(0, T - C), and the
    decision that R and the appetite max_risk give.
    """
    problems = []
    for required, direct, indirect, max_risk, outcome, combined, risk in rows:
        if direct.mean >= required:
            expected, mean = "AcceptDirect", None
        elif indirect.mean >= required:
            expected, mean = "AcceptIndirect", None
        else:
            expected, mean = expected_fusion(direct, indirect)
        case = f"T {required!r}, A {direct}, B {indirect}, appetite {max_risk!r}"
        if mean is None:
            if outcome != expected:
                problems.append(f"{outcome} where {expected} is due: {case}")
            elif expected.startswith("Accept") and (risk != 0.0 or combined not in (None, 0.0)):
                problems.append(f"{outcome} carries C {combined!r}, risk {risk!r}: {case}")
        elif combined is None or not 0.0 < combined < 1.0:
            problems.append(f"{outcome} with C {combined!r} where C = {mean!r} is due: {case}")
        elif abs(combined - mean) > POSTERIOR_TOLERANCE:
            problems.append(f"C {combined!r} != posterior mean {mean!r}: {case}")
        else:
            due_risk = max(0.0, required - combined)
            due = ("AcceptCombined" if due_risk == 0.0
                   else "AcceptWithRisk" if due_risk <= max_risk else "Decline")
            if risk != due_risk or outcome != due:
                problems.append(f"{outcome} with risk {risk!r} where {due} with risk "
                                f"{due_risk!r} is due: {case}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def check_assessment(network, result) -> list[str]:
    """Gate one run_assessment result against the network it assessed."""
    problems = []
    errored = {(error.from_node, error.to_node): error.kind for error in result.errors}
    decided = result.decisions.keys()
    if len(errored) != len(result.errors):
        problems.append("an edge is listed in errors more than once")
    both = decided & errored.keys()
    if both:
        problems.append(f"{len(both)} edges are both decided and in errors")
    if decided | errored.keys() != network.edges.keys():
        problems.append("decisions and errors do not cover exactly the network's edges")
    outcomes = {key: decision.value for key, decision in result.decisions.items()}
    outcomes.update(errored)
    rows = []
    for (i, j), outcome in outcomes.items():
        edge = network.edges.get((i, j))
        if edge is None:
            continue
        rows.append((edge.required, edge.direct, edge.indirect,
                     network.appetite_for(i).max_acceptable_risk, outcome,
                     float(result.c_matrix[i - 1, j - 1]), float(result.r_matrix[i - 1, j - 1])))
    return problems + check_outcomes(rows)


def check_matrices_text(text: str, node_count: int, matrices: dict, parse_matrices) -> list[str]:
    """matrices.csv must parse back to the labels and the rendered values."""
    labels, parsed = parse_matrices(text)
    if labels != list(range(1, node_count + 1)):
        return ["matrices.csv labels are not 1..n"]
    return [
        f"matrix {name} does not round-trip through parse_matrices"
        for name, matrix in matrices.items()
        if parsed[name].shape != matrix.shape
        or not np.all(np.abs(parsed[name] - matrix) <= RENDER_TOLERANCE)
    ]


def results_digest(lines) -> str:
    """SHA-256 over one text line per outcome, for byte-for-byte comparison."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def assessment_lines(result):
    """Canonical per-edge outcome lines of a run_assessment result."""
    outcomes = {key: decision.value for key, decision in result.decisions.items()}
    outcomes.update({(e.from_node, e.to_node): e.kind for e in result.errors})
    for (i, j) in sorted(outcomes):
        yield (f"{i},{j},{outcomes[(i, j)]},"
               f"{float(result.c_matrix[i - 1, j - 1])!r},{float(result.r_matrix[i - 1, j - 1])!r}")
