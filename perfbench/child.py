"""Entry points the benchmark runs as child processes.

    child.py conventions --seed S --scale X --out DIR
        Learn the latest ITDK set of the seed's world; write
        DIR/conventions.json and DIR/templates.txt (its named hostnames).
    child.py warm --seed S --scale X --cache-dir D --jobs N
        Fill an artifact store with the seed's world and timeline.
    child.py run --seed S --scale X --digest-out F [--cache-dir D]
                 [--trace-out T --layers-out L]
        ``repro-hoiho run --scale X`` through ``repro.cli.main``,
        recording a digest of the learned conventions (and, with
        ``--layers-out``, the probe totals of a traced run).
    child.py annotate-overhead --conventions C --hostnames H --out O
                               --jobs N --trace-out T --layers-out L
        ``BulkAnnotator.annotate_to`` untraced and traced, alternately;
        the seconds of each call go to L.
    child.py annotate-layers --conventions C --hostnames H --out O
                             --jobs N --layers-out L
        The service layer alone, then one untraced bulk annotation
        with probes on the index, memo, reader and sink.
    child.py serve --conventions C --jobs N --out F [--trace-out T]
        A pre-fork server tree of N workers until SIGTERM; its address
        goes to F once it answers.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
import time

import layers
from common import read_json, write_json
from workload_gen import conventions_digest

#: Hostnames in the service-layer pass of ``annotate-layers``.
SERVICE_SAMPLE = 200_000
#: Untraced/traced pairs of ``annotate_to`` behind the tracing overhead.
OVERHEAD_PAIRS = 2


def _conventions(args: argparse.Namespace) -> int:
    from repro.core.io import conventions_to_json
    from repro.eval import ExperimentContext, Scale
    from repro.eval.timeline import ITDK_TIMELINE

    label = ITDK_TIMELINE[-1][0]
    context = ExperimentContext(seed=args.seed, scale=Scale(args.scale),
                                itdk_labels=[label], include_pdb=False)
    result = context.learned(label)
    snapshot = context.training_set(label).snapshot.snapshot
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "conventions.json"), "w",
              encoding="utf-8") as handle:
        handle.write(conventions_to_json(result))
    with open(os.path.join(args.out, "templates.txt"), "w",
              encoding="utf-8") as handle:
        for _, hostname in snapshot.named_addresses():
            handle.write(hostname + "\n")
    return 0


def _warm(args: argparse.Namespace) -> int:
    from repro.core.parallel import ParallelConfig
    from repro.eval import ExperimentContext, Scale
    from repro.store import ArtifactStore

    context = ExperimentContext(seed=args.seed, scale=Scale(args.scale),
                                parallel=ParallelConfig.from_jobs(args.jobs),
                                store=ArtifactStore(args.cache_dir))
    context.timeline
    return 0


def _run(args: argparse.Namespace) -> int:
    from repro import cli
    from repro.eval import ExperimentContext

    learned = {}
    original = ExperimentContext.learn_timeline

    def learn_timeline(self, labels=None):
        results = original(self, labels)
        learned.update(results)
        return results

    ExperimentContext.learn_timeline = learn_timeline
    probes = layers.install_pipeline_probes() if args.layers_out else None
    argv = ["run", "--scale", args.scale, "--seed", str(args.seed)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    if args.trace_out:
        argv += ["--trace-out", args.trace_out]
    code = cli.main(argv)
    write_json(args.digest_out, {
        "digest": conventions_digest(learned),
        "labels": len(learned),
        "conventions": sum(len(r.conventions) for r in learned.values())})
    if probes is not None:
        layers.dump_probes(args.layers_out, probes, {})
    return code


def _annotate_pass(args: argparse.Namespace, tracer) -> float:
    """One ``annotate_to`` over the stream, as ``repro-hoiho annotate``
    runs it, on a fresh service; the seconds the call took."""
    from repro.core.parallel import ParallelConfig
    from repro.serve import AnnotationService, BulkAnnotator
    from repro.serve.engine import iter_hostnames

    service = AnnotationService.from_json_file(args.conventions)
    service.warm()
    annotator = BulkAnnotator(service,
                              parallel=ParallelConfig.from_jobs(args.jobs),
                              tracer=tracer)
    with open(args.hostnames, encoding="utf-8") as source, \
            open(args.out, "w", encoding="utf-8") as out:
        started = time.perf_counter()
        annotator.annotate_to(iter_hostnames(source), out, fmt="tsv")
        return time.perf_counter() - started


def _annotate_overhead(args: argparse.Namespace) -> int:
    """The same ``annotate_to`` call untraced and traced, alternately,
    so the two sides differ only in the tracer."""
    from repro.obs.trace import NULL_TRACER, Tracer

    plain, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        plain.append(_annotate_pass(args, NULL_TRACER))
        tracer = Tracer(path=args.trace_out)
        traced.append(_annotate_pass(args, tracer))
        tracer.close()
    write_json(args.layers_out, {"plain_s": plain, "traced_s": traced})
    return 0


#: State of ``_probed_annotate_chunk`` (module level, so the pool can
#: pickle the function by name).
_CHUNK_PROBES: dict = {}


def _probed_annotate_chunk(payload):
    """``engine._annotate_chunk`` that also writes the worker's probe
    totals after every chunk: workers are forked, and their totals come
    home through files."""
    from repro.serve import engine

    state = _CHUNK_PROBES
    result = state["annotate_chunk"](payload)
    state["chunks"] += 1
    memo = engine._WORKER_STATE[1]
    layers.dump_probes(
        os.path.join(state["directory"], "%d.json" % os.getpid()),
        state["probes"],
        {"evictions": memo.evictions if memo is not None else 0,
         "chunks": state["chunks"]})
    return result


def _annotate_layers(args: argparse.Namespace) -> int:
    """Layer probes of one untraced bulk annotation, plus the service
    layer alone (measured first, before any probe exists)."""
    from repro.core.parallel import ParallelConfig
    from repro.serve import AnnotationService, BulkAnnotator, engine
    from repro.serve.engine import SINKS, iter_hostnames

    # One in-process annotate_batch over the head of the stream, memo
    # cold.
    with open(args.hostnames, encoding="utf-8") as source:
        sample = [line.strip() for _, line in zip(range(SERVICE_SAMPLE),
                                                  source)]
    service = AnnotationService.from_json_file(args.conventions)
    service.warm()
    started = time.perf_counter_ns()
    service.annotate_batch(sample)
    service_ns = (time.perf_counter_ns() - started) / len(sample)

    probe_dir = args.layers_out + ".d"
    os.makedirs(probe_dir, exist_ok=True)
    probes = layers.install_index_probes()
    _CHUNK_PROBES.update(annotate_chunk=engine._annotate_chunk,
                         probes=probes, directory=probe_dir, chunks=0)
    engine._annotate_chunk = _probed_annotate_chunk
    read = layers.Probe()
    sink = layers.Probe()
    SINKS["tsv"] = layers.timed(SINKS["tsv"], sink)

    service = AnnotationService.from_json_file(args.conventions)
    service.warm()
    annotator = BulkAnnotator(service,
                              parallel=ParallelConfig.from_jobs(args.jobs))

    def hostnames(source):
        clock = time.perf_counter_ns
        iterator = iter_hostnames(source)
        while True:
            started = clock()
            try:
                hostname = next(iterator)
            except StopIteration:
                return
            read.ns += clock() - started
            read.calls += 1
            yield hostname

    with open(args.hostnames, encoding="utf-8") as source, \
            open(args.out, "w", encoding="utf-8") as out:
        summary = annotator.annotate_to(hostnames(source), out, fmt="tsv")
    workers = [read_json(path) for path in
               sorted(glob.glob(os.path.join(probe_dir, "*.json")))]
    totals = {name: {"calls": sum(w[name]["calls"] for w in workers),
                     "ns": sum(w[name]["ns"] for w in workers)}
              for name in probes}
    totals["evictions"] = sum(w["evictions"] for w in workers)
    totals["chunks"] = sum(w["chunks"] for w in workers)
    totals["workers"] = len(workers)
    totals["read"] = read.as_dict()
    totals["sink"] = sink.as_dict()
    totals["summary"] = summary
    totals["service_ns"] = service_ns
    totals["fused_plans"] = service.index.fused_plans()
    totals["plans"] = len(service.index)
    write_json(args.layers_out, totals)
    return 0


def _serve(args: argparse.Namespace) -> int:
    """A pre-fork ``ServerProcess`` as this process's child tree.

    Writes ``{"host", "port"}`` to ``--out`` once the server answers,
    then serves until SIGTERM, drains the tree and exits with its code;
    ``wait4`` on this process then covers the whole tree.
    """
    import signal
    from repro.serve import HttpConfig, ServerProcess

    with open(args.conventions, encoding="utf-8") as handle:
        conventions = handle.read()
    config = HttpConfig(host="127.0.0.1", port=0, workers=args.jobs,
                        flush_interval=0.2)
    if args.trace_out:
        config.trace_sample = 1
        config.trace_out = args.trace_out
    server = ServerProcess(conventions, config).start()
    # Blocked only after the fork, so the server tree still takes
    # SIGTERM; here it is waited for instead of delivered.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    # Renamed into place: the benchmark polls for the file.
    write_json(args.out + ".tmp", {"host": server.host,
                                   "port": server.port})
    os.replace(args.out + ".tmp", args.out)
    signal.sigwait({signal.SIGTERM})
    code = server.stop()
    return 1 if code is None else code


ACTIONS = {"conventions": _conventions, "warm": _warm, "run": _run,
           "annotate-overhead": _annotate_overhead,
           "annotate-layers": _annotate_layers, "serve": _serve}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("action", choices=sorted(ACTIONS))
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--scale", default="small")
    parser.add_argument("--out")
    parser.add_argument("--cache-dir")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--digest-out")
    parser.add_argument("--trace-out")
    parser.add_argument("--layers-out")
    parser.add_argument("--conventions")
    parser.add_argument("--hostnames")
    args = parser.parse_args(argv)
    return ACTIONS[args.action](args)


if __name__ == "__main__":
    sys.exit(main())
