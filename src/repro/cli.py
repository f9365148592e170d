"""Command-line interface:
``repro {info,calibrate,plan,bench,profile,inspect,footprint,lint,verify,transform}``.

Examples::

    repro info
    repro calibrate --device titan-x
    repro plan --network alexnet --device titan-black
    repro plan --network alexnet --trace plan-trace.json
    repro profile alexnet --trace out.json --metrics metrics.json
    repro bench --network lenet
    repro bench --layers conv
    repro inspect --layer CV7 --verbose
    repro footprint --network vgg --training
    repro lint --network alexnet --format json
    repro verify alexnet --strategy optimal
    repro verify --graph plan.json
    repro plan --network alexnet --verify
    repro transform --n 64 --c 96 --hw 55

``--trace``/``--jsonl``/``--metrics`` (on ``plan``, ``sweep``,
``calibrate``, and ``profile``) install a span tracer around the command
and export its stream afterwards; results are byte-identical with and
without tracing (file notes go to stderr).  See ``docs/OBSERVABILITY.md``.

Each handler imports what it runs, so a command loads only its own part
of the package: ``info`` and ``--help`` never import NumPy.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

from .gpusim.device import get_device, list_devices
from .networks.definitions import NETWORK_BUILDERS, build_network

if TYPE_CHECKING:
    from .ir.graph import GraphNode


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sim-stats",
        action="store_true",
        help="print simulation-session counters (cache hits, kernels timed) "
        "after the command",
    )


def _add_device(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument(
        "--device",
        default="titan-black",
        help=f"device spec to simulate ({', '.join(list_devices())})",
    )


def _parse_jobs(value: str) -> int | str:
    """``--jobs`` argument: an integer or the literal ``auto``."""
    if value.strip().lower() == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_parse_jobs,
        default=1,
        help="worker processes for independent kernel evaluations "
        "(1 = serial, 'auto' or negative = all CPUs; requests beyond the "
        "CPU count are clamped); results are identical for any value",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome-trace JSON span timeline (load in "
        "chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--jsonl",
        metavar="FILE",
        help="write the raw span/event stream as JSON Lines",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write aggregated counters/gauges/histograms as JSON",
    )


def _cmd_info(args: argparse.Namespace) -> int:
    from .baselines.names import SCHEMES

    for name in list_devices():
        dev = get_device(name)
        print(
            f"{name:12s} {dev.name}: {dev.sm_count} SMs, "
            f"{dev.peak_gflops:.0f} GFLOPS, {dev.mem_bandwidth_gbs:.0f} GB/s, "
            f"{dev.dram_gib:.0f} GiB"
        )
    print(f"\nnetworks: {', '.join(NETWORK_BUILDERS)}")
    print(f"schemes:  {', '.join(SCHEMES)}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .core.calibration import calibrate

    device = get_device(args.device)
    result = calibrate(device, jobs=args.jobs)
    print(result.summary())
    print("\nN sweep (CONV7 shape):")
    for p in result.n_sweep:
        winner = "CHWN" if p.chwn_wins else "NCHW"
        print(f"  N={p.value:4d}  chwn={p.chwn_ms:8.3f} ms  nchw={p.nchw_ms:8.3f} ms  -> {winner}")
    print("C sweep:")
    for p in result.c_sweep:
        winner = "CHWN" if p.chwn_wins else "NCHW"
        print(f"  C={p.value:4d}  chwn={p.chwn_ms:8.3f} ms  nchw={p.nchw_ms:8.3f} ms  -> {winner}")
    return 0


def _step_record(node: GraphNode) -> dict[str, object]:
    """One planned node as a ``plan --format json`` step: the layout shows
    on conv/pool nodes only, and the transform layouts only when the node
    has exactly one input-edge transform."""
    single = node.transforms[0] if len(node.transforms) == 1 else None
    return {
        "name": node.name,
        "kind": node.kind.value,
        "layout": str(node.kernel_layout) if node.kernel_layout else None,
        "implementation": node.implementation or "",
        "layer_ms": node.layer_ms,
        "transform_ms": node.transform_ms,
        "transformed_from": str(single.from_layout) if single else None,
        "transformed_to": str(single.to_layout) if single else None,
        "coarsening": list(node.coarsening) if node.coarsening else None,
    }


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    from .core.pipeline import PassContractError, PipelineOptions, plan_network

    device = get_device(args.device)
    netdef = build_network(args.network, batch=args.batch)
    try:
        result = plan_network(
            device,
            netdef,
            PipelineOptions(strategy=args.strategy, verify=args.verify),
        )
    except PassContractError as exc:
        print(f"plan: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        payload = {
            "network": netdef.name,
            "device": device.name,
            "strategy": result.strategy,
            "total_ms": result.total_ms,
            "transform_count": result.transform_count,
            "transform_ms": result.transform_ms,
            "steps": [_step_record(node) for node in result.graph.topological()],
            "passes": [
                {
                    "name": t.name,
                    "ms": t.ms,
                    "nodes_before": t.nodes_before,
                    "nodes_after": t.nodes_after,
                    "stats": t.stats,
                }
                for t in result.trace
            ],
            "graph": result.graph.to_json(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(result.summary())
    print(
        f"\ntransforms: {result.transform_count} "
        f"({result.transform_ms:.3f} ms of {result.total_ms:.3f} ms total)"
    )
    if args.explain:
        print()
        print(result.explain())
    return 0


def _batched_eval_digest() -> str | None:
    """Summarize the grid evaluator's work, if any ran.

    Surfaces the ``batch.eval.*`` metrics next to the span digest so
    ``repro profile`` shows how many candidates the execution engine's
    misses sent to ``evaluate_models``; ``repro.obs`` smoke checks gate on
    the same category.
    """
    from .obs.metrics import aggregate_metrics

    metrics = aggregate_metrics()
    batches = metrics.value("batch.eval.batches")
    if not batches:
        return None
    candidates = metrics.value("batch.eval.candidates")
    sizes = metrics.histogram("batch.eval.size").summary()
    lines = [
        "batched evaluation:",
        f"  batches            {int(batches)}",
        f"  candidates         {int(candidates)}",
        f"  batch size         p50={sizes.get('p50', 0):.0f} "
        f"max={sizes.get('max', 0):.0f}",
    ]
    return "\n".join(lines)


def _cmd_profile(args: argparse.Namespace) -> int:
    from .core.pipeline import PipelineOptions, plan_network
    from .obs.export import summarize_spans
    from .obs.tracer import active_tracer

    device = get_device(args.device)
    netdef = build_network(args.network, batch=args.batch)
    result = plan_network(
        device, netdef, PipelineOptions(strategy=args.strategy, jobs=args.jobs)
    )
    print(
        f"profile: {netdef.name} on {device.name} "
        f"(strategy={result.strategy}, batch={netdef.batch})"
    )
    print()
    print(result.summary())
    print(
        f"\ntransforms: {result.transform_count} "
        f"({result.transform_ms:.3f} ms of {result.total_ms:.3f} ms total)"
    )
    print()
    print(result.explain())
    tracer = active_tracer()
    if tracer is not None:
        print()
        print(summarize_spans(tracer.spans()))
    digest = _batched_eval_digest()
    if digest is not None:
        print()
        print(digest)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .baselines.schemes import SCHEMES, compare_schemes

    device = get_device(args.device)
    if args.layers:
        return _bench_layers(device, args.layers)
    names = [args.network] if args.network else list(NETWORK_BUILDERS)
    for name in names:
        results = compare_schemes(build_network(name), device)
        base = results["cudnn-mm"].total_ms
        print(f"\n{name} (times in ms; speedup vs cuDNN-MM):")
        for scheme in SCHEMES:
            r = results[scheme]
            print(f"  {scheme:14s} {r.total_ms:10.3f}  {base / r.total_ms:5.2f}x")
    return 0


def _bench_layers(device, which: str) -> int:
    from .gpusim.session import GpuOutOfMemoryError, default_context
    from .layers.conv_kernels import ConvUnsupportedError, make_conv_kernel
    from .layers.pooling_kernels import make_pool_kernel
    from .layers.softmax_kernels import make_softmax_kernel
    from .networks.table1 import CONV_LAYERS, FIG13_SOFTMAX, POOL_LAYERS

    ctx = default_context(device)
    if which == "conv":
        print("layer  impl         time(ms)   GFLOPS")
        for name, spec in CONV_LAYERS.items():
            for impl in ("direct", "im2col", "fft", "fft-tiled"):
                try:
                    s = ctx.run(make_conv_kernel(spec, impl))
                    print(f"{name:5s}  {impl:11s} {s.time_ms:9.3f} {s.achieved_gflops:8.0f}")
                except (ConvUnsupportedError, GpuOutOfMemoryError) as exc:
                    print(f"{name:5s}  {impl:11s}      FAIL  ({exc})")
    elif which == "pool":
        print("layer  impl             time(ms)  eff-GB/s")
        for name, spec in POOL_LAYERS.items():
            useful = spec.in_desc().nbytes + spec.out_desc().nbytes
            for impl in ("chwn", "chwn-coarsened", "nchw-linear", "nchw-rowblock"):
                s = ctx.run(make_pool_kernel(spec, impl))
                print(
                    f"{name:5s}  {impl:15s} {s.time_ms:9.3f} "
                    f"{useful / (s.time_ms * 1e6):9.1f}"
                )
    elif which == "softmax":
        print("config     impl      time(ms)  eff-GB/s")
        for name, spec in FIG13_SOFTMAX.items():
            for impl in ("5kernel", "cudnn", "fused", "opt"):
                s = ctx.run(make_softmax_kernel(spec, impl))
                bw = 2 * spec.nbytes / (s.time_ms * 1e6)
                print(f"{name:9s}  {impl:8s} {s.time_ms:9.4f} {bw:9.1f}")
    else:
        print(f"unknown layer group {which!r}; choose conv, pool, or softmax", file=sys.stderr)
        return 2
    return 0


def _cmd_attribute(args: argparse.Namespace) -> int:
    from .analysis.attribution import attribute_gains

    device = get_device(args.device)
    net = build_network(args.network, batch=args.batch)
    a = attribute_gains(net, device, baseline=args.baseline)
    print(f"{net.name} on {device.name} (baseline: {args.baseline})")
    print(f"  baseline            : {a.baseline_ms:10.3f} ms")
    print(f"  + flexible layouts  : {a.layout_only_ms:10.3f} ms")
    print(f"  + off-chip opts     : {a.full_opt_ms:10.3f} ms")
    print(
        f"  attribution         : layout {a.layout_share:.0%}, "
        f"off-chip {a.offchip_share:.0%} "
        "(paper Section VI.C: 72% / 28%)"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.sweeps import crossovers, sweep_conv
    from .networks.table1 import CONV_LAYERS

    device = get_device(args.device)
    name = args.layer.upper()
    if name not in CONV_LAYERS:
        print(f"unknown conv layer {args.layer!r}", file=sys.stderr)
        return 2
    values = tuple(int(v) for v in args.values.split(","))
    impls = tuple(args.impls.split(","))
    result = sweep_conv(device, CONV_LAYERS[name], args.dim, values, impls, jobs=args.jobs)
    header = "  ".join(f"{impl:>12s}" for impl in impls)
    print(f"{args.dim:>6s}  {header}  {'winner':>10s}")
    for v in values:
        cells = []
        for impl in impls:
            t = result.time(v, impl)
            cells.append(f"{t:12.3f}" if t is not None else f"{'n/a':>12s}")
        try:
            winner = result.winner(v)
        except ValueError:
            winner = "-"
        print(f"{v:6d}  " + "  ".join(cells) + f"  {winner:>10s}")
    for value, old, new in crossovers(result):
        print(f"crossover at {args.dim}={value}: {old} -> {new}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .gpusim.reporting import comparison_table, kernel_report
    from .gpusim.session import GpuOutOfMemoryError, default_context
    from .layers.conv_kernels import ConvUnsupportedError, make_conv_kernel
    from .layers.pooling_kernels import make_pool_kernel
    from .networks.table1 import CONV_LAYERS, POOL_LAYERS

    device = get_device(args.device)
    ctx = default_context(device)
    name = args.layer.upper()
    if name in CONV_LAYERS:
        spec = CONV_LAYERS[name]
        entries = []
        for impl in ("direct", "im2col", "im2col-nhwc", "fft", "fft-tiled"):
            try:
                kernel = make_conv_kernel(spec, impl)
                entries.append((impl, ctx.run(kernel, check_memory=False)))
            except (ConvUnsupportedError, GpuOutOfMemoryError) as exc:
                print(f"{impl}: unavailable ({exc})")
        print(comparison_table(device, entries))
        if args.verbose:
            for impl, stats in entries:
                print()
                print(kernel_report(device, stats))
    elif name in POOL_LAYERS:
        spec = POOL_LAYERS[name]
        entries = [
            (impl, ctx.run(make_pool_kernel(spec, impl), check_memory=False))
            for impl in ("chwn", "chwn-coarsened", "nchw-linear", "nchw-rowblock")
        ]
        print(comparison_table(device, entries))
        if args.verbose:
            for impl, stats in entries:
                print()
                print(kernel_report(device, stats))
    else:
        known = ", ".join(list(CONV_LAYERS) + list(POOL_LAYERS))
        print(f"unknown layer {args.layer!r}; known: {known}", file=sys.stderr)
        return 2
    return 0


def _cmd_footprint(args: argparse.Namespace) -> int:
    from .framework.memory import format_footprint, plan_within_memory

    device = get_device(args.device)
    net = build_network(args.network, batch=args.batch)
    result, footprint = plan_within_memory(device, net, training=args.training)
    mode = "training" if args.training else "inference"
    print(f"{net.name} ({mode}) on {device.name}:")
    print(" ", format_footprint(footprint))
    print(
        f"  peak {footprint.peak_bytes / 2**30:.2f} GiB of "
        f"{device.dram_gib:.0f} GiB -> fits: {footprint.fits(device)}"
    )
    fft_layers = [n.name for n in result.graph if "fft" in (n.implementation or "")]
    if fft_layers:
        print(f"  plan uses FFT on: {', '.join(fft_layers)}")
    else:
        print("  plan avoids FFT (memory pressure or no benefit)")
    return 0


def _parse_rule_ids(values: list[str] | None) -> frozenset[str]:
    ids: set[str] = set()
    for value in values or []:
        ids.update(part.strip().upper() for part in value.split(",") if part.strip())
    return frozenset(ids)


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .analysis.lint import (
        LintConfig,
        LintReport,
        UnknownRuleError,
        iter_rules,
        lint_netdef_text,
        lint_network,
    )

    if args.list_rules:
        for r in iter_rules():
            print(f"{r.id}  {r.severity.value:7s}  {r.summary}")
        return 0

    try:
        config = LintConfig(
            disabled=_parse_rule_ids(args.disable),
            selected=_parse_rule_ids(args.select) or None,
        )
    except UnknownRuleError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    device = get_device(args.device)
    reports = []
    if args.netdef:
        try:
            with open(args.netdef, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"lint: cannot read {args.netdef}: {exc}", file=sys.stderr)
            return 2
        diagnostics = lint_netdef_text(text, config)
        report = LintReport(target=args.netdef, device=device.name, strategy="netdef")
        report.diagnostics = diagnostics
        reports.append(report)
    else:
        names = [args.network] if args.network else sorted(NETWORK_BUILDERS)
        for name in names:
            netdef = build_network(name, batch=args.batch)
            reports.append(
                lint_network(device, netdef, strategy=args.strategy, config=config)
            )

    failed = any(r.failed(strict=args.strict) for r in reports)
    if args.format == "json":
        payload = {
            "device": device.name,
            "strict": args.strict,
            "failed": failed,
            "reports": [r.to_dict() for r in reports],
        }
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            print(report.render_text())
    return 1 if failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from .analysis.dataflow.liveness import liveness_footprint
    from .analysis.dataflow.verify import verify_graph, verify_network
    from .analysis.lint import LintConfig, LintReport, UnknownRuleError, iter_rules
    from .core.pipeline import PassContractError
    from .ir.graph import Graph

    if args.list_rules:
        for r in iter_rules():
            if r.id.startswith("D"):
                print(f"{r.id}  {r.severity.value:7s}  {r.summary}")
        return 0

    try:
        config = LintConfig(
            disabled=_parse_rule_ids(args.disable),
            selected=_parse_rule_ids(args.select) or None,
        )
    except UnknownRuleError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2

    device = get_device(args.device)
    results: list[tuple[LintReport, object | None]] = []

    if args.graph:
        try:
            with open(args.graph, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"verify: cannot read {args.graph}: {exc}", file=sys.stderr)
            return 2
        # Accept both a bare graph dump and the `repro plan --format json`
        # payload (whose graph lives under the "graph" key).
        if isinstance(payload, dict) and "nodes" not in payload:
            payload = payload.get("graph", payload)
        try:
            graph = Graph.from_json(payload)
        except (KeyError, TypeError, ValueError) as exc:
            print(f"verify: malformed graph {args.graph}: {exc}", file=sys.stderr)
            return 2
        report = LintReport(
            target=args.graph, device=device.name, strategy="graph"
        )
        report.diagnostics = verify_graph(graph, device, config)
        footprint = None
        if not report.errors:
            # A structurally broken graph has no well-defined liveness.
            footprint = liveness_footprint(graph, training=args.training)
        results.append((report, footprint))
    else:
        names = [args.network] if args.network else sorted(NETWORK_BUILDERS)
        for name in names:
            netdef = build_network(name, batch=args.batch)
            try:
                report, footprint = verify_network(
                    device,
                    netdef,
                    strategy=args.strategy,
                    config=config,
                    training=args.training,
                )
            except PassContractError as exc:
                print(f"verify: {name}: {exc}", file=sys.stderr)
                return 1
            results.append((report, footprint))

    failed = any(r.failed(strict=args.strict) for r, _ in results)
    if args.format == "json":
        payload = {
            "device": device.name,
            "strict": args.strict,
            "failed": failed,
            "reports": [
                {
                    **report.to_dict(),
                    "footprint": (
                        {
                            "peak_bytes": fp.peak_bytes,
                            "peak_step": fp.peak_step,
                            "weights_bytes": fp.weights_bytes,
                            "curve": [
                                {"step": name, "bytes": nbytes}
                                for name, nbytes in fp.curve
                            ],
                        }
                        if fp is not None
                        else None
                    ),
                }
                for report, fp in results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for report, fp in results:
            print(report.render_text())
            if fp is not None:
                print(fp.summary())
            print()
    return 1 if failed else 0


def _cmd_transform(args: argparse.Namespace) -> int:
    from .tensors.layout import CHWN, NCHW
    from .tensors.tensor import TensorDesc
    from .tensors.transform_kernels import transform_stats

    device = get_device(args.device)
    desc = TensorDesc(args.n, args.c, args.hw, args.hw, CHWN)
    print(f"CHWN -> NCHW relayout of N={args.n} C={args.c} HW={args.hw} "
          f"({desc.nbytes / 2**20:.1f} MiB):")
    for method in ("naive", "opt1", "opt2"):
        try:
            s = transform_stats(device, desc, NCHW, method)
        except ValueError as exc:
            print(f"  {method:6s}  n/a ({exc})")
            continue
        print(
            f"  {method:6s} {s.time_ms:8.3f} ms   "
            f"{s.effective_bandwidth_gbs:6.1f} GB/s effective"
        )
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory-efficiency optimizations for deep CNNs on GPUs "
        "(SC'16 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="list devices, networks and schemes")
    _add_common(p)

    p = sub.add_parser("calibrate", help="derive the (Ct, Nt) layout thresholds")
    _add_device(p)
    _add_jobs(p)
    _add_obs(p)

    p = sub.add_parser("plan", help="plan layouts for a network")
    _add_device(p)
    _add_obs(p)
    p.add_argument("--network", required=True, choices=sorted(NETWORK_BUILDERS))
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--strategy", choices=("heuristic", "optimal"), default="optimal")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--explain", action="store_true",
                   help="print the pass pipeline's per-pass timing and stats")
    p.add_argument("--verify", action="store_true",
                   help="check each pass's declared contracts on its output "
                   "graph; a violation names the offending pass and exits 1")

    p = sub.add_parser(
        "profile",
        help="plan a network under the span tracer and print a profile "
        "summary (pair with --trace/--metrics for files)",
    )
    _add_device(p)
    _add_obs(p)
    _add_jobs(p)
    p.add_argument("network", choices=sorted(NETWORK_BUILDERS))
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--strategy", choices=("heuristic", "optimal"), default="optimal")

    p = sub.add_parser("bench", help="simulate networks or layer groups")
    _add_device(p)
    p.add_argument("--network", choices=sorted(NETWORK_BUILDERS))
    p.add_argument("--layers", choices=("conv", "pool", "softmax"))

    p = sub.add_parser("attribute", help="decompose Opt's gain (Section VI.C)")
    _add_device(p)
    p.add_argument("--network", required=True, choices=sorted(NETWORK_BUILDERS))
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--baseline", default="cudnn-best")

    p = sub.add_parser("sweep", help="sensitivity sweep over one conv dimension")
    _add_device(p)
    _add_jobs(p)
    _add_obs(p)
    p.add_argument("--layer", required=True, help="CV1..CV12 base shape")
    p.add_argument("--dim", default="n", help="ConvSpec field to vary (n, ci, co, h)")
    p.add_argument("--values", default="16,32,64,128,256")
    p.add_argument("--impls", default="direct,im2col")

    p = sub.add_parser("inspect", help="profiler-style report for one Table-1 layer")
    _add_device(p)
    p.add_argument("--layer", required=True, help="CV1..CV12 or PL1..PL10")
    p.add_argument("--verbose", action="store_true", help="full per-kernel reports")

    p = sub.add_parser("footprint", help="device-memory footprint of a network")
    _add_device(p)
    p.add_argument("--network", required=True, choices=sorted(NETWORK_BUILDERS))
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--training", action="store_true")

    p = sub.add_parser(
        "lint", help="static analysis of netdefs, layout plans and kernels"
    )
    _add_device(p)
    p.add_argument("--network", choices=sorted(NETWORK_BUILDERS),
                   help="lint one bundled network (default: all)")
    p.add_argument("--netdef", help="lint a netdef text file instead")
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--strategy", choices=("heuristic", "optimal"), default="heuristic")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--strict", action="store_true",
                   help="warnings also cause a nonzero exit")
    p.add_argument("--disable", action="append", metavar="IDS",
                   help="comma-separated rule IDs to skip (repeatable)")
    p.add_argument("--select", action="append", metavar="IDS",
                   help="run only these comma-separated rule IDs (repeatable)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")

    p = sub.add_parser(
        "verify",
        help="dataflow verification: abstract interpretation, liveness, "
        "and pass contracts over the planned graph",
    )
    _add_device(p)
    p.add_argument("network", nargs="?", choices=sorted(NETWORK_BUILDERS),
                   help="verify one bundled network (default: all)")
    p.add_argument("--graph", metavar="FILE",
                   help="verify a serialized graph JSON (bare Graph.to_json "
                   "dump or a `repro plan --format json` payload) instead")
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--strategy", choices=("heuristic", "optimal"), default="optimal")
    p.add_argument("--training", action="store_true",
                   help="liveness model with backward-pass residency")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--strict", action="store_true",
                   help="warnings also cause a nonzero exit")
    p.add_argument("--disable", action="append", metavar="IDS",
                   help="comma-separated rule IDs to skip (repeatable)")
    p.add_argument("--select", action="append", metavar="IDS",
                   help="run only these comma-separated rule IDs (repeatable)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the D-rule catalog and exit")

    p = sub.add_parser("transform", help="compare layout-transform kernels")
    _add_device(p)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--c", type=int, default=96)
    p.add_argument("--hw", type=int, default=55)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "calibrate": _cmd_calibrate,
        "plan": _cmd_plan,
        "profile": _cmd_profile,
        "bench": _cmd_bench,
        "attribute": _cmd_attribute,
        "sweep": _cmd_sweep,
        "inspect": _cmd_inspect,
        "footprint": _cmd_footprint,
        "lint": _cmd_lint,
        "verify": _cmd_verify,
        "transform": _cmd_transform,
    }
    trace_path = getattr(args, "trace", None)
    jsonl_path = getattr(args, "jsonl", None)
    metrics_path = getattr(args, "metrics", None)
    # `profile` always traces (its summary reads the span stream); the
    # other commands trace only when asked for an export file.  Tracing is
    # observational: the handler's stdout is byte-identical either way,
    # and file notes go to stderr.
    want_tracer = bool(trace_path or jsonl_path) or args.command == "profile"
    tracer = None
    if want_tracer:
        from .obs.tracer import Tracer, install_tracer, uninstall_tracer

        tracer = install_tracer(Tracer(f"repro-{args.command}"))
    try:
        if tracer is not None:
            with tracer.span(f"repro {args.command}", "cli", command=args.command):
                status = handlers[args.command](args)
        else:
            status = handlers[args.command](args)
    finally:
        if want_tracer:
            uninstall_tracer()
    if trace_path or jsonl_path or metrics_path:
        from .obs.export import write_chrome_trace, write_jsonl, write_metrics
    if tracer is not None and trace_path:
        write_chrome_trace(trace_path, tracer)
        print(
            f"trace: wrote {len(tracer.spans())} spans to {trace_path}",
            file=sys.stderr,
        )
    if tracer is not None and jsonl_path:
        write_jsonl(jsonl_path, tracer)
        print(
            f"jsonl: wrote {len(tracer.spans())} spans / "
            f"{len(tracer.events())} events to {jsonl_path}",
            file=sys.stderr,
        )
    if metrics_path:
        write_metrics(metrics_path)
        print(f"metrics: wrote {metrics_path}", file=sys.stderr)
    if getattr(args, "sim_stats", False):
        from .gpusim.session import global_sim_stats

        print()
        print(global_sim_stats().summary())
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
