"""Command-line front end.

One subcommand per analysis: ``analyze`` (accumulated influence), ``compare``
(accumulated vs impulse), ``scale-check`` (scale equivariance), ``paths``,
``kosko``, ``impulse`` (simulation or scoring) and ``stability``.  Every
subcommand reads a map file (CSV or JSON, by extension), supports
``--format table|json|csv`` and is deterministic: identical inputs and flags
produce byte-identical output.

Numeric options are checked when the arguments are parsed, before any map is
read: ``--max-paths``, ``--max-len``, ``--max-steps`` and ``--threads`` take
integers >= 1, ``--eps`` and ``--eta`` positive finite numbers.  Any other
value is a usage error, whatever the map.

Exit codes: 0 success, 1 usage, 2 input validation, 3 numerical failure
(including an influence, score or scaled weight that overflows, with nothing
on stdout) or exceeded path budget, 4 method not applicable (impulse scoring
on an unstable map).  ``compare`` always prints the accumulated ranking: an
impulse column it cannot fill makes it exit 0, except on a stable map whose
impulse processes run out of steps (exit 4).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import CogmapError, ImpulseDivergenceError, MethodNotApplicableError, ValidationError
from .impulse import impulse_general_influence, simulate, stability_check
from .influence import general_influence, influence_matrix
from .kosko import total_influence
from .maps import CognitiveMap, _default_fmt, dumps_map, load_map, scale_map
from .paths import DEFAULT_MAX_PATHS, enumerate_with_budget

__all__ = ["cli", "main"]


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------


def _fmt3(value: float) -> str:
    value = float(value) + 0.0  # normalize -0.0
    return f"{value:.3e}" if abs(value) >= 1e12 else f"{value:.3f}"


def _vertex_name(i: int, labels) -> str:
    """1-based number, with the label alongside when one exists."""
    return f"{i + 1} ({labels[i]})" if labels else str(i + 1)


def _matrix_lines(rows, title: str) -> list[str]:
    cells = [[_fmt3(v) for v in row] for row in rows]
    width = max(8, *(len(c) + 2 for row in cells for c in row))
    lines = [title, "      " + "".join(f"{j + 1:>{width}}" for j in range(len(cells)))]
    for i, row in enumerate(cells):
        lines.append(f"{i + 1:>5} " + "".join(f"{c:>{width}}" for c in row))
    return lines


def _legend_lines(labels) -> list[str]:
    if not labels:
        return []
    return ["vertices: " + ", ".join(f"{i + 1} = {s}" for i, s in enumerate(labels))]


def _ranking_lines(scores, ranking, labels, score_header: str) -> list[str]:
    lines = [f"{'rank':>5}  {'vertex':<28} {score_header}"]
    for pos, vertex in enumerate(ranking, start=1):
        lines.append(
            f"{pos:>5}  {_vertex_name(vertex - 1, labels):<28} {_fmt3(scores[vertex - 1])}"
        )
    return lines


def _table_analyze(p: dict) -> list[str]:
    lines = _legend_lines(p["labels"])
    lines += _matrix_lines(p["influence"], f"accumulated influence matrix ({p['n']} vertices):")
    lines.append("")
    return lines + _ranking_lines(p["scores"], p["ranking"], p["labels"], "influence")


def _csv_analyze(p: dict) -> list[str]:
    # the influence matrix is finite with a zero diagonal, so it is a valid map
    return [dumps_map(CognitiveMap(p["influence"], p["labels"]), "csv").removesuffix("\n")]


def _table_stability(p: dict) -> list[str]:
    return [
        f"stable: {'yes' if p['stable'] else 'no'}",
        f"nonzero eigenvalues pairwise distinct: {'yes' if p['all_distinct'] else 'no'}",
        f"all magnitudes within unit circle: {'yes' if p['all_within_unit'] else 'no'}",
        f"spectral radius: {_fmt3(p['spectral_radius'])}",
        "eigenvalue magnitudes: " + ", ".join(_fmt3(m) for m in p["magnitudes"]),
    ]


def _csv_stability(p: dict) -> list[str]:
    return ["re,im,magnitude"] + [
        f"{e['re']!r},{e['im']!r},{e['magnitude']!r}" for e in p["eigenvalues"]
    ]


def _table_paths(p: dict) -> list[str]:
    lines = []
    for entry in p["paths"]:
        route = " -> ".join(str(v) for v in entry["vertices"])
        weights = ", ".join(_fmt3(w) for w in entry["weights"])
        lines.append(f"{route}  [{weights}]")
    return lines


def _csv_paths(p: dict) -> list[str]:
    return [",".join(str(v) for v in entry["vertices"]) for entry in p["paths"]]


def _table_kosko(p: dict) -> list[str]:
    lines = []
    for entry in p["paths"]:
        route = " -> ".join(str(v) for v in entry["vertices"])
        lines.append(f"{route}  weakest link {_fmt3(entry['weakest'])}")
    if p["total"] is None:
        lines.append("total influence: none (target unreachable)")
    else:
        lines.append(f"total influence (strongest path): {_fmt3(p['total'])}")
    return lines


def _csv_kosko(p: dict) -> list[str]:
    lines = ["path,weakest"]
    for entry in p["paths"]:
        lines.append("-".join(str(v) for v in entry["vertices"]) + f",{entry['weakest']!r}")
    total = "" if p["total"] is None else repr(p["total"])
    lines.append(f"total,{total}")
    return lines


def _table_impulse(p: dict) -> list[str]:
    if p["converged"]:
        head = f"converged after {p['steps_to_converge']} steps (max |impulse| < {p['eps']:g})"
    else:
        head = (
            f"did not converge within {p['steps']} steps "
            f"(final max |impulse| {p['final_max_impulse']:.6g})"
        )
    return [
        f"unit impulse at vertex {p['source']}",
        head,
        "final values: " + ", ".join(_fmt3(v) for v in p["final_values"]),
    ]


def _csv_impulse(p: dict) -> list[str]:
    n = len(p["final_values"])
    header = ["t", *(f"v_{j + 1}" for j in range(n)), *(f"p_{j + 1}" for j in range(n))]
    return [",".join(header)] + [
        ",".join([str(t), *map(repr, v_row), *map(repr, p_row)])
        for t, (v_row, p_row) in enumerate(zip(p["trace_values"], p["trace_impulses"]))
    ]


def _table_impulse_scores(p: dict) -> list[str]:
    return _ranking_lines(p["scores"], p["ranking"], p["labels"], "impulse influence")


def _csv_impulse_scores(p: dict) -> list[str]:
    rank_of = {v: pos for pos, v in enumerate(p["ranking"], start=1)}
    return ["vertex,score,rank"] + [
        f"{i + 1},{score!r},{rank_of[i + 1]}" for i, score in enumerate(p["scores"])
    ]


def _table_compare(p: dict) -> list[str]:
    labels = p["labels"]
    acc = p["accumulated"]
    if p["stable"]:  # a stable map lacks impulse scores only when they diverged
        missing_cell, missing = "(diverged)", "diverged"
    else:
        missing_cell, missing = "(unstable: not applicable)", "not applicable"
    lines = [
        "stability: " + ("stable" if p["stable"] else "unstable"),
        f"{'rank':>5}  {'accumulated':<28} impulse",
    ]
    for pos in range(len(acc["ranking"])):
        a_vertex = acc["ranking"][pos]
        a_cell = f"{_vertex_name(a_vertex - 1, labels)} [{_fmt3(acc['scores'][a_vertex - 1])}]"
        if p["impulse"] is None:
            i_cell = missing_cell if pos == 0 else ""
        else:
            i_vertex = p["impulse"]["ranking"][pos]
            i_cell = (
                f"{_vertex_name(i_vertex - 1, labels)} "
                f"[{_fmt3(p['impulse']['scores'][i_vertex - 1])}]"
            )
        lines.append(f"{pos + 1:>5}  {a_cell:<28} {i_cell}".rstrip())
    if p["rankings_agree"] is None:
        lines.append(f"ranking agreement: impulse method {missing}")
    elif p["rankings_agree"]:
        lines.append("ranking agreement: the two methods rank the vertices identically")
    else:
        lines.append("ranking agreement: the rankings differ")
    return lines


def _csv_compare(p: dict) -> list[str]:
    lines = ["rank,accumulated_vertex,accumulated_score,impulse_vertex,impulse_score"]
    acc = p["accumulated"]
    for pos in range(len(acc["ranking"])):
        a_vertex = acc["ranking"][pos]
        row = f"{pos + 1},{a_vertex},{acc['scores'][a_vertex - 1]!r}"
        if p["impulse"] is None:
            row += ",,"
        else:
            i_vertex = p["impulse"]["ranking"][pos]
            row += f",{i_vertex},{p['impulse']['scores'][i_vertex - 1]!r}"
        lines.append(row)
    return lines


def _table_scale_check(p: dict) -> list[str]:
    lines = _legend_lines(p["labels"])
    header = f"{'vertex':>6} {'base':>12}"
    for chk in p["checks"]:
        header += f" {'x' + format(chk['eta'], 'g'):>12}"
    lines.append(header)
    n = len(p["base_scores"])
    for i in range(n):
        row = f"{i + 1:>6} {_fmt3(p['base_scores'][i]):>12}"
        for chk in p["checks"]:
            row += f" {_fmt3(chk['scores'][i]):>12}"
        lines.append(row)
    for chk in p["checks"]:
        lines.append(
            f"eta {chk['eta']:g}: max relative deviation from proportional scaling "
            f"{chk['max_rel_deviation']:.3e}; ranking "
            + ("identical" if chk["ranking_identical"] else "DIFFERS")
        )
    return lines


def _csv_scale_check(p: dict) -> list[str]:
    header = "vertex,base," + ",".join(f"eta_{chk['eta']:g}" for chk in p["checks"])
    return [header] + [
        ",".join([str(i + 1), repr(base), *(repr(chk["scores"][i]) for chk in p["checks"])])
        for i, base in enumerate(p["base_scores"])
    ]


# ---------------------------------------------------------------------------
# Shared options and helpers
# ---------------------------------------------------------------------------


def _load_cli_map(map_file: str, decimal_comma: bool) -> CognitiveMap:
    path = Path(map_file)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {map_file}: {exc}") from None
    return load_map(data, _default_fmt(path), decimal_comma=decimal_comma)


def _echo(fmt: str, payload: dict, table, csv) -> None:
    """Write ``payload`` as JSON, or through the command's table or csv renderer.

    Renderers return lines without their newlines; no lines prints nothing.
    """
    if fmt == "json":
        lines = [json.dumps(payload, indent=2)]
    else:
        lines = (table if fmt == "table" else csv)(payload)
    click.echo("".join(line + "\n" for line in lines), nl=False)


def _one_based(ctx_name: str, value: int, n: int) -> int:
    if not 1 <= value <= n:
        raise click.UsageError(f"{ctx_name} must be in 1..{n}, got {value}")
    return value - 1


def _pair(source: int, target: int, n: int) -> tuple[int, int]:
    """0-based ``--from``/``--to`` vertices, which must be distinct."""
    src = _one_based("--from", source, n)
    dst = _one_based("--to", target, n)
    if src == dst:
        raise click.UsageError("--from and --to must differ")
    return src, dst


class _PositiveFloat(click.ParamType):
    """A finite float greater than zero."""

    name = "float"

    def convert(self, value, param, ctx):
        number = click.FLOAT.convert(value, param, ctx)
        if not (math.isfinite(number) and number > 0):
            self.fail(f"{number:g} is not a positive finite number.", param, ctx)
        return number


POSITIVE_INT = click.IntRange(min=1)
POSITIVE_FLOAT = _PositiveFloat()


map_options = (
    click.argument("map_file", type=click.Path()),
    click.option(
        "--format",
        "fmt",
        type=click.Choice(["table", "json", "csv"]),
        default="table",
        show_default=True,
        help="Output format.",
    ),
    click.option(
        "--decimal-comma",
        is_flag=True,
        help="Parse CSV input with decimal commas and semicolon separators.",
    ),
)
budget_options = (
    click.option(
        "--max-paths",
        type=POSITIVE_INT,
        default=DEFAULT_MAX_PATHS,
        show_default=True,
        help="Abort if a vertex pair has more simple paths than this.",
    ),
    click.option(
        "--max-len",
        type=POSITIVE_INT,
        default=None,
        help="Bound path length in edges (default: number of vertices).",
    ),
)
pair_options = (
    click.option("--from", "source", type=int, required=True, help="Source vertex (1-based)."),
    click.option("--to", "target", type=int, required=True, help="Target vertex (1-based)."),
)
simulation_options = (
    click.option(
        "--eps", type=POSITIVE_FLOAT, default=1e-6, show_default=True, help="Convergence cutoff."
    ),
    click.option("--max-steps", type=POSITIVE_INT, default=None, help="Simulation step budget."),
)
threads_option = click.option(
    "--threads",
    type=POSITIVE_INT,
    default=1,
    show_default=True,
    help="Accepted for compatibility; has no effect. Rows are computed "
    "sequentially, since a thread pool was measured slower under the GIL.",
)


def _add_options(options):
    def wrap(f):
        for option in reversed(options):
            f = option(f)
        return f

    return wrap


@click.group()
@click.version_option(version=__version__, prog_name="cogmap")
def cli():
    """Influence analysis of cognitive maps (weighted signed digraphs)."""


@cli.command()
@_add_options(map_options)
@_add_options(budget_options)
@threads_option
def analyze(map_file, fmt, decimal_comma, max_paths, max_len, threads):
    """Accumulated influence matrix, vertex scores and ranking."""
    cmap = _load_cli_map(map_file, decimal_comma)
    Z = influence_matrix(cmap, max_paths=max_paths, max_len=max_len, threads=threads)
    report = general_influence(Z)
    payload = {
        "method": "accumulated",
        "n": cmap.n,
        "labels": cmap.labels,
        "influence": Z.tolist(),
        "scores": report.scores,
        "ranking": report.ranking,
    }
    _echo(fmt, payload, _table_analyze, _csv_analyze)


@cli.command()
@_add_options(map_options)
def stability(map_file, fmt, decimal_comma):
    """Spectral stability verdict and eigenvalue magnitudes."""
    cmap = _load_cli_map(map_file, decimal_comma)
    verdict = stability_check(cmap)
    payload = {
        "method": "stability",
        "stable": verdict.stable,
        "all_distinct": verdict.all_distinct,
        "all_within_unit": verdict.all_within_unit,
        "spectral_radius": verdict.spectral_radius,
        "magnitudes": verdict.magnitudes,
        "eigenvalues": [
            {"re": e.real, "im": e.imag, "magnitude": m}
            for e, m in zip(verdict.eigenvalues, verdict.magnitudes)
        ],
    }
    _echo(fmt, payload, _table_stability, _csv_stability)


@cli.command()
@_add_options(map_options)
@_add_options(pair_options)
@_add_options(budget_options)
def paths(map_file, source, target, fmt, decimal_comma, max_paths, max_len):
    """List all simple paths between two vertices."""
    cmap = _load_cli_map(map_file, decimal_comma)
    src, dst = _pair(source, target, cmap.n)
    pathset = enumerate_with_budget(cmap, src, dst, max_paths=max_paths, max_len=max_len)
    payload = {
        "method": "paths",
        "source": source,
        "target": target,
        "count": pathset.count,
        "paths": [
            {
                "vertices": [v + 1 for v in path],
                "weights": pathset.edge_weights(cmap, path),
            }
            for path in pathset
        ],
    }
    _echo(fmt, payload, _table_paths, _csv_paths)


@cli.command()
@_add_options(map_options)
@_add_options(pair_options)
@click.option("--abs-weights", is_flag=True, help="Take weakest links by magnitude.")
@_add_options(budget_options)
def kosko(map_file, source, target, abs_weights, fmt, decimal_comma, max_paths, max_len):
    """Weakest-link influence per path and the strongest-path total."""
    cmap = _load_cli_map(map_file, decimal_comma)
    src, dst = _pair(source, target, cmap.n)
    result = total_influence(
        cmap, src, dst, abs_weights=abs_weights, max_paths=max_paths, max_len=max_len
    )
    payload = {
        "method": "kosko",
        "source": source,
        "target": target,
        "abs_weights": abs_weights,
        "paths": [
            {"vertices": [v + 1 for v in path], "weakest": weakest}
            for path, weakest in result.per_path.items()
        ],
        "total": result.total,
    }
    _echo(fmt, payload, _table_kosko, _csv_kosko)


@cli.command()
@_add_options(map_options)
@click.option(
    "--from",
    "source",
    type=int,
    default=1,
    show_default=True,
    help="Vertex receiving the unit impulse (1-based).",
)
@_add_options(simulation_options)
@click.option("--scores", is_flag=True, help="Rank all vertices instead of tracing one impulse.")
def impulse(map_file, source, eps, max_steps, scores, fmt, decimal_comma):
    """Simulate an impulse process (or rank vertices with --scores).

    With --format csv the full trace is emitted as t,v_1..v_n,p_1..p_n rows
    for external plotting.
    """
    cmap = _load_cli_map(map_file, decimal_comma)
    if scores:
        report = impulse_general_influence(cmap, eps=eps, max_steps=max_steps)
        payload = {
            "method": "impulse-scores",
            "labels": cmap.labels,
            "scores": report.scores,
            "ranking": report.ranking,
        }
        _echo(fmt, payload, _table_impulse_scores, _csv_impulse_scores)
        return
    src = _one_based("--from", source, cmap.n)
    p0 = np.zeros(cmap.n)
    p0[src] = 1.0
    trace = simulate(cmap, p0, max_steps=max_steps, eps=eps)
    payload = {
        "method": "impulse",
        "source": source,
        "eps": eps,
        "converged": trace.converged,
        "steps": trace.steps,
        "steps_to_converge": trace.steps_to_converge,
        "final_values": trace.final_values.tolist(),
        "final_max_impulse": float(np.max(np.abs(trace.impulses[-1]))),
    }
    if fmt != "table":  # only JSON and CSV print the trace
        payload["trace_values"] = trace.values.tolist()
        payload["trace_impulses"] = trace.impulses.tolist()
    _echo(fmt, payload, _table_impulse, _csv_impulse)


@cli.command()
@_add_options(map_options)
@_add_options(simulation_options)
@_add_options(budget_options)
@threads_option
def compare(map_file, eps, max_steps, fmt, decimal_comma, max_paths, max_len, threads):
    """Accumulated vs impulse rankings side by side.

    The accumulated method always runs; impulse scoring runs only when the
    map passes the stability check, otherwise its column is marked not
    applicable.
    """
    cmap = _load_cli_map(map_file, decimal_comma)
    Z = influence_matrix(cmap, max_paths=max_paths, max_len=max_len, threads=threads)
    acc = general_influence(Z)
    try:
        report = impulse_general_influence(cmap, eps=eps, max_steps=max_steps)
    except MethodNotApplicableError as exc:
        if exc.verdict.stable:  # a stable map that did not converge: exit 4
            raise
        stable, impulse_part, agree = False, None, None
    except ImpulseDivergenceError as exc:  # stable, but an impulse overflowed
        click.echo(f"warning: {exc}", err=True)
        stable, impulse_part, agree = True, None, None
    else:
        stable = True
        impulse_part = {"scores": report.scores, "ranking": report.ranking}
        agree = report.ranking == acc.ranking
    payload = {
        "method": "compare",
        "labels": cmap.labels,
        "stable": stable,
        "accumulated": {"scores": acc.scores, "ranking": acc.ranking},
        "impulse": impulse_part,
        "rankings_agree": agree,
    }
    _echo(fmt, payload, _table_compare, _csv_compare)


@cli.command(name="scale-check")
@_add_options(map_options)
@click.option(
    "--eta",
    "etas",
    type=POSITIVE_FLOAT,
    multiple=True,
    required=True,
    help="Scale factor to check (repeatable).",
)
@_add_options(budget_options)
@threads_option
def scale_check(map_file, etas, fmt, decimal_comma, max_paths, max_len, threads):
    """Verify that scaling all weights by eta scales every score by eta."""
    cmap = _load_cli_map(map_file, decimal_comma)
    # eta 1.0 scales exactly, so the base scores keep their bits
    base, *scaled_reports = (
        general_influence(
            influence_matrix(
                scale_map(cmap, eta), max_paths=max_paths, max_len=max_len, threads=threads
            )
        )
        for eta in (1.0, *etas)
    )
    checks = []
    for eta, scaled in zip(etas, scaled_reports):
        expected = [eta * s for s in base.scores]
        deviations = [
            abs(got - want) / abs(want) if want != 0 else abs(got - want)
            for got, want in zip(scaled.scores, expected)
        ]
        checks.append(
            {
                "eta": eta,
                "scores": scaled.scores,
                "expected": expected,
                "max_rel_deviation": max(deviations),
                "ranking_identical": scaled.ranking == base.ranking,
            }
        )
    payload = {
        "method": "scale-check",
        "labels": cmap.labels,
        "base_scores": base.scores,
        "base_ranking": base.ranking,
        "checks": checks,
    }
    _echo(fmt, payload, _table_scale_check, _csv_scale_check)
    if not all(chk["ranking_identical"] for chk in checks):
        raise CogmapError("ranking changed under scaling; this indicates a numerical problem")


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except ValidationError as exc:
        click.echo(f"validation error: {exc}", err=True)
        return 2
    except MethodNotApplicableError as exc:
        click.echo(f"not applicable: {exc}", err=True)
        return 4
    except CogmapError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
