"""Command-line front end.

One subcommand per analysis: ``analyze`` (accumulated influence), ``compare``
(accumulated vs impulse), ``scale-check`` (scale equivariance), ``paths``,
``kosko``, ``impulse`` (simulation or scoring) and ``stability``.  Every
subcommand reads a map file (CSV or JSON, by extension), supports
``--format table|json|csv`` and is deterministic: identical inputs and flags
produce byte-identical output.

Exit codes: 0 success, 1 usage, 2 input validation, 3 numerical failure or
exceeded path budget, 4 method not applicable (impulse scoring on an
unstable map).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .errors import CogmapError, MethodNotApplicableError, ValidationError
from .impulse import impulse_general_influence, simulate, stability_check
from .influence import general_influence, influence_matrix
from .kosko import total_influence
from .maps import CognitiveMap, load_map, scale_map
from .paths import enumerate_with_budget

__all__ = ["cli", "main", "OutputDocument"]


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------


def _fmt3(value: float) -> str:
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.3f}"


def _vertex_name(i: int, labels) -> str:
    """1-based number, with the label alongside when one exists."""
    return f"{i + 1} ({labels[i]})" if labels else str(i + 1)


def _matrix_lines(Z: np.ndarray, title: str) -> list[str]:
    n = Z.shape[0]
    width = max(8, *(len(_fmt3(v)) + 2 for v in Z.flat)) if n else 8
    lines = [title, "      " + "".join(f"{j + 1:>{width}}" for j in range(n))]
    for i in range(n):
        lines.append(f"{i + 1:>5} " + "".join(f"{_fmt3(v):>{width}}" for v in Z[i]))
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


def _csv_matrix(Z: np.ndarray, labels) -> str:
    out = []
    if labels:
        out.append(",".join(labels))
    for row in Z:
        out.append(",".join(repr(float(v)) for v in row))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class OutputDocument:
    """A subcommand result: structured payload plus how to render it."""

    method: str
    payload: dict
    format: str

    def render(self) -> str:
        if self.format == "json":
            return json.dumps(self.payload, indent=2) + "\n"
        renderer = _TABLE_RENDERERS if self.format == "table" else _CSV_RENDERERS
        return renderer[self.method](self.payload)


def _table_analyze(p: dict) -> str:
    Z = np.array(p["influence"])
    lines = _legend_lines(p["labels"])
    lines += _matrix_lines(Z, f"accumulated influence matrix ({p['n']} vertices):")
    lines.append("")
    lines += _ranking_lines(p["scores"], p["ranking"], p["labels"], "influence")
    return "\n".join(lines) + "\n"


def _csv_analyze(p: dict) -> str:
    return _csv_matrix(np.array(p["influence"]), p["labels"])


def _table_stability(p: dict) -> str:
    lines = [
        f"stable: {'yes' if p['stable'] else 'no'}",
        f"nonzero eigenvalues pairwise distinct: {'yes' if p['all_distinct'] else 'no'}",
        f"all magnitudes within unit circle: {'yes' if p['all_within_unit'] else 'no'}",
        f"spectral radius: {_fmt3(p['spectral_radius'])}",
        "eigenvalue magnitudes: " + ", ".join(_fmt3(m) for m in p["magnitudes"]),
    ]
    return "\n".join(lines) + "\n"


def _csv_stability(p: dict) -> str:
    lines = ["re,im,magnitude"]
    for e in p["eigenvalues"]:
        lines.append(f"{e['re']!r},{e['im']!r},{e['magnitude']!r}")
    return "\n".join(lines) + "\n"


def _table_paths(p: dict) -> str:
    lines = []
    for entry in p["paths"]:
        route = " -> ".join(str(v) for v in entry["vertices"])
        weights = ", ".join(_fmt3(w) for w in entry["weights"])
        lines.append(f"{route}  [{weights}]")
    return "\n".join(lines) + ("\n" if lines else "")


def _csv_paths(p: dict) -> str:
    lines = [",".join(str(v) for v in entry["vertices"]) for entry in p["paths"]]
    return "\n".join(lines) + ("\n" if lines else "")


def _table_kosko(p: dict) -> str:
    lines = []
    for entry in p["paths"]:
        route = " -> ".join(str(v) for v in entry["vertices"])
        lines.append(f"{route}  weakest link {_fmt3(entry['weakest'])}")
    if p["total"] is None:
        lines.append("total influence: none (target unreachable)")
    else:
        lines.append(f"total influence (strongest path): {_fmt3(p['total'])}")
    return "\n".join(lines) + "\n"


def _csv_kosko(p: dict) -> str:
    lines = ["path,weakest"]
    for entry in p["paths"]:
        lines.append("-".join(str(v) for v in entry["vertices"]) + f",{entry['weakest']!r}")
    total = "" if p["total"] is None else repr(p["total"])
    lines.append(f"total,{total}")
    return "\n".join(lines) + "\n"


def _table_impulse(p: dict) -> str:
    if p["converged"]:
        head = f"converged after {p['steps_to_converge']} steps (max |impulse| < {p['eps']:g})"
    else:
        head = (
            f"did not converge within {p['steps']} steps "
            f"(final max |impulse| {p['final_max_impulse']:.6g})"
        )
    lines = [
        f"unit impulse at vertex {p['source']}",
        head,
        "final values: " + ", ".join(_fmt3(v) for v in p["final_values"]),
    ]
    return "\n".join(lines) + "\n"


def _csv_impulse(p: dict) -> str:
    n = len(p["final_values"])
    header = (
        "t,"
        + ",".join(f"v_{j + 1}" for j in range(n))
        + ","
        + ",".join(f"p_{j + 1}" for j in range(n))
    )
    lines = [header]
    for t, (v_row, p_row) in enumerate(zip(p["trace_values"], p["trace_impulses"])):
        lines.append(
            f"{t},"
            + ",".join(repr(float(x)) for x in v_row)
            + ","
            + ",".join(repr(float(x)) for x in p_row)
        )
    return "\n".join(lines) + "\n"


def _table_impulse_scores(p: dict) -> str:
    lines = _ranking_lines(p["scores"], p["ranking"], p["labels"], "impulse influence")
    return "\n".join(lines) + "\n"


def _csv_impulse_scores(p: dict) -> str:
    lines = ["vertex,score,rank"]
    rank_of = {v: pos for pos, v in enumerate(p["ranking"], start=1)}
    for i, score in enumerate(p["scores"]):
        lines.append(f"{i + 1},{score!r},{rank_of[i + 1]}")
    return "\n".join(lines) + "\n"


def _table_compare(p: dict) -> str:
    labels = p["labels"]
    acc = p["accumulated"]
    lines = [
        "stability: " + ("stable" if p["stable"] else "unstable"),
        f"{'rank':>5}  {'accumulated':<28} impulse",
    ]
    for pos in range(len(acc["ranking"])):
        a_vertex = acc["ranking"][pos]
        a_cell = f"{_vertex_name(a_vertex - 1, labels)} [{_fmt3(acc['scores'][a_vertex - 1])}]"
        if p["impulse"] is None:
            i_cell = "(unstable: not applicable)" if pos == 0 else ""
        else:
            i_vertex = p["impulse"]["ranking"][pos]
            i_cell = (
                f"{_vertex_name(i_vertex - 1, labels)} "
                f"[{_fmt3(p['impulse']['scores'][i_vertex - 1])}]"
            )
        lines.append(f"{pos + 1:>5}  {a_cell:<28} {i_cell}".rstrip())
    if p["rankings_agree"] is None:
        lines.append("ranking agreement: impulse method not applicable")
    elif p["rankings_agree"]:
        lines.append("ranking agreement: the two methods rank the vertices identically")
    else:
        lines.append("ranking agreement: the rankings differ")
    return "\n".join(lines) + "\n"


def _csv_compare(p: dict) -> str:
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
    return "\n".join(lines) + "\n"


def _table_scale_check(p: dict) -> str:
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
    return "\n".join(lines) + "\n"


def _csv_scale_check(p: dict) -> str:
    header = "vertex,base," + ",".join(f"eta_{chk['eta']:g}" for chk in p["checks"])
    lines = [header]
    for i in range(len(p["base_scores"])):
        row = [str(i + 1), repr(p["base_scores"][i])]
        row += [repr(chk["scores"][i]) for chk in p["checks"]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


_TABLE_RENDERERS = {
    "accumulated": _table_analyze,
    "stability": _table_stability,
    "paths": _table_paths,
    "kosko": _table_kosko,
    "impulse": _table_impulse,
    "impulse-scores": _table_impulse_scores,
    "compare": _table_compare,
    "scale-check": _table_scale_check,
}

_CSV_RENDERERS = {
    "accumulated": _csv_analyze,
    "stability": _csv_stability,
    "paths": _csv_paths,
    "kosko": _csv_kosko,
    "impulse": _csv_impulse,
    "impulse-scores": _csv_impulse_scores,
    "compare": _csv_compare,
    "scale-check": _csv_scale_check,
}


# ---------------------------------------------------------------------------
# Shared options and helpers
# ---------------------------------------------------------------------------


def _load_cli_map(map_file: str, decimal_comma: bool) -> CognitiveMap:
    path = Path(map_file)
    fmt = "json" if path.suffix.lower() == ".json" else "csv"
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {map_file}: {exc}") from None
    return load_map(text, fmt, decimal_comma=decimal_comma)


def _echo(doc: OutputDocument) -> None:
    click.echo(doc.render(), nl=False)


def _one_based(ctx_name: str, value: int, n: int) -> int:
    if not 1 <= value <= n:
        raise click.UsageError(f"{ctx_name} must be in 1..{n}, got {value}")
    return value - 1


format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "json", "csv"]),
    default="table",
    show_default=True,
    help="Output format.",
)
decimal_comma_option = click.option(
    "--decimal-comma",
    is_flag=True,
    help="Parse CSV input with decimal commas and semicolon separators.",
)
budget_options = (
    click.option(
        "--max-paths",
        type=int,
        default=10**6,
        show_default=True,
        help="Abort if a vertex pair has more simple paths than this.",
    ),
    click.option(
        "--max-len",
        type=int,
        default=None,
        help="Bound path length in edges (default: number of vertices).",
    ),
)
threads_option = click.option(
    "--threads",
    type=int,
    default=1,
    show_default=True,
    envvar="COGMAP_THREADS",
    help="Accepted for compatibility; has no effect. Pairs are computed "
    "sequentially, since a thread pool was measured slower under the GIL.",
)


def _add_options(options):
    def wrap(f):
        for option in reversed(options):
            f = option(f)
        return f

    return wrap


@click.group()
@click.version_option(package_name="cogmap")
def cli():
    """Influence analysis of cognitive maps (weighted signed digraphs)."""


@cli.command()
@click.argument("map_file", type=click.Path())
@format_option
@decimal_comma_option
@_add_options(budget_options)
@threads_option
def analyze(map_file, fmt, decimal_comma, max_paths, max_len, threads):
    """Accumulated influence matrix, vertex scores and ranking."""
    if threads < 1:
        raise click.UsageError("--threads must be >= 1")
    cmap = _load_cli_map(map_file, decimal_comma)
    Z = influence_matrix(cmap, max_paths=max_paths, max_len=max_len, threads=threads)
    report = general_influence(Z)
    payload = {
        "method": "accumulated",
        "n": cmap.n,
        "labels": list(cmap.labels) if cmap.labels else None,
        "influence": [[float(v) for v in row] for row in Z],
        "scores": list(report.scores),
        "ranking": list(report.ranking),
    }
    _echo(OutputDocument("accumulated", payload, fmt))


@cli.command()
@click.argument("map_file", type=click.Path())
@format_option
@decimal_comma_option
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
        "magnitudes": list(verdict.magnitudes),
        "eigenvalues": [
            {"re": e.real, "im": e.imag, "magnitude": abs(e)} for e in verdict.eigenvalues
        ],
    }
    _echo(OutputDocument("stability", payload, fmt))


@cli.command()
@click.argument("map_file", type=click.Path())
@click.option("--from", "source", type=int, required=True, help="Source vertex (1-based).")
@click.option("--to", "target", type=int, required=True, help="Target vertex (1-based).")
@format_option
@decimal_comma_option
@_add_options(budget_options)
def paths(map_file, source, target, fmt, decimal_comma, max_paths, max_len):
    """List all simple paths between two vertices."""
    cmap = _load_cli_map(map_file, decimal_comma)
    src = _one_based("--from", source, cmap.n)
    dst = _one_based("--to", target, cmap.n)
    if src == dst:
        raise click.UsageError("--from and --to must differ")
    pathset = enumerate_with_budget(cmap, src, dst, max_paths=max_paths, max_len=max_len)
    payload = {
        "method": "paths",
        "source": source,
        "target": target,
        "count": pathset.count,
        "paths": [
            {
                "vertices": [v + 1 for v in path],
                "weights": list(pathset.edge_weights(cmap, path)),
            }
            for path in pathset
        ],
    }
    _echo(OutputDocument("paths", payload, fmt))


@cli.command()
@click.argument("map_file", type=click.Path())
@click.option("--from", "source", type=int, required=True, help="Source vertex (1-based).")
@click.option("--to", "target", type=int, required=True, help="Target vertex (1-based).")
@click.option("--abs-weights", is_flag=True, help="Take weakest links by magnitude.")
@format_option
@decimal_comma_option
@_add_options(budget_options)
def kosko(map_file, source, target, abs_weights, fmt, decimal_comma, max_paths, max_len):
    """Weakest-link influence per path and the strongest-path total."""
    cmap = _load_cli_map(map_file, decimal_comma)
    src = _one_based("--from", source, cmap.n)
    dst = _one_based("--to", target, cmap.n)
    if src == dst:
        raise click.UsageError("--from and --to must differ")
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
    _echo(OutputDocument("kosko", payload, fmt))


@cli.command()
@click.argument("map_file", type=click.Path())
@click.option(
    "--from",
    "source",
    type=int,
    default=1,
    show_default=True,
    help="Vertex receiving the unit impulse (1-based).",
)
@click.option("--eps", type=float, default=1e-6, show_default=True, help="Convergence cutoff.")
@click.option("--max-steps", type=int, default=None, help="Simulation step budget.")
@click.option("--scores", is_flag=True, help="Rank all vertices instead of tracing one impulse.")
@format_option
@decimal_comma_option
def impulse(map_file, source, eps, max_steps, scores, fmt, decimal_comma):
    """Simulate an impulse process (or rank vertices with --scores).

    With --format csv the full trace is emitted as t,v_1..v_n,p_1..p_n rows
    for external plotting.
    """
    if eps <= 0:
        raise click.UsageError("--eps must be positive")
    cmap = _load_cli_map(map_file, decimal_comma)
    if scores:
        report = impulse_general_influence(cmap, eps=eps, max_steps=max_steps)
        payload = {
            "method": "impulse-scores",
            "labels": list(cmap.labels) if cmap.labels else None,
            "scores": list(report.scores),
            "ranking": list(report.ranking),
        }
        _echo(OutputDocument("impulse-scores", payload, fmt))
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
        "final_values": [float(v) for v in trace.final_values],
        "final_max_impulse": float(np.max(np.abs(trace.impulses[-1]))),
        "trace_values": [[float(x) for x in row] for row in trace.values],
        "trace_impulses": [[float(x) for x in row] for row in trace.impulses],
    }
    _echo(OutputDocument("impulse", payload, fmt))


@cli.command()
@click.argument("map_file", type=click.Path())
@click.option("--eps", type=float, default=1e-6, show_default=True, help="Convergence cutoff.")
@click.option("--max-steps", type=int, default=None, help="Simulation step budget.")
@format_option
@decimal_comma_option
@_add_options(budget_options)
@threads_option
def compare(map_file, eps, max_steps, fmt, decimal_comma, max_paths, max_len, threads):
    """Accumulated vs impulse rankings side by side.

    The accumulated method always runs; impulse scoring runs only when the
    map passes the stability check, otherwise its column is marked not
    applicable.
    """
    if threads < 1:
        raise click.UsageError("--threads must be >= 1")
    cmap = _load_cli_map(map_file, decimal_comma)
    verdict = stability_check(cmap)
    Z = influence_matrix(cmap, max_paths=max_paths, max_len=max_len, threads=threads)
    acc = general_influence(Z)
    impulse_part = None
    agree = None
    if verdict.stable:
        report = impulse_general_influence(cmap, eps=eps, max_steps=max_steps)
        impulse_part = {"scores": list(report.scores), "ranking": list(report.ranking)}
        agree = list(report.ranking) == list(acc.ranking)
    payload = {
        "method": "compare",
        "labels": list(cmap.labels) if cmap.labels else None,
        "stable": verdict.stable,
        "accumulated": {"scores": list(acc.scores), "ranking": list(acc.ranking)},
        "impulse": impulse_part,
        "rankings_agree": agree,
    }
    _echo(OutputDocument("compare", payload, fmt))


@cli.command(name="scale-check")
@click.argument("map_file", type=click.Path())
@click.option(
    "--eta",
    "etas",
    type=float,
    multiple=True,
    required=True,
    help="Scale factor to check (repeatable).",
)
@format_option
@decimal_comma_option
@_add_options(budget_options)
@threads_option
def scale_check(map_file, etas, fmt, decimal_comma, max_paths, max_len, threads):
    """Verify that scaling all weights by eta scales every score by eta."""
    if threads < 1:
        raise click.UsageError("--threads must be >= 1")
    for eta in etas:
        if not eta > 0:
            raise click.UsageError(f"--eta must be positive, got {eta:g}")
    cmap = _load_cli_map(map_file, decimal_comma)
    base = general_influence(
        influence_matrix(cmap, max_paths=max_paths, max_len=max_len, threads=threads)
    )
    checks = []
    all_identical = True
    for eta in etas:
        scaled = general_influence(
            influence_matrix(
                scale_map(cmap, eta), max_paths=max_paths, max_len=max_len, threads=threads
            )
        )
        expected = [eta * s for s in base.scores]
        deviations = [
            abs(got - want) / abs(want) if want != 0 else abs(got - want)
            for got, want in zip(scaled.scores, expected)
        ]
        identical = scaled.ranking == base.ranking
        all_identical = all_identical and identical
        checks.append(
            {
                "eta": eta,
                "scores": list(scaled.scores),
                "expected": expected,
                "max_rel_deviation": max(deviations) if deviations else 0.0,
                "ranking_identical": identical,
            }
        )
    payload = {
        "method": "scale-check",
        "labels": list(cmap.labels) if cmap.labels else None,
        "base_scores": list(base.scores),
        "base_ranking": list(base.ranking),
        "checks": checks,
    }
    _echo(OutputDocument("scale-check", payload, fmt))
    if not all_identical:
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
