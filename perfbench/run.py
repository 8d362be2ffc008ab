#!/usr/bin/env python3
"""End-to-end benchmark of the SYMBOL toolchain.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 45 --trace 0

It builds symbolc and symbold from the checkout, and the
calibration kernel in perfbench/calib, into $CARGO_TARGET_DIR (default
.bench_build), runs one workload for --seconds, checks the answers, and
prints one JSON line as the last line of stdout. Progress and tool
output go to stderr and to .bench_run/.

Workloads (each one seeded by --seed); operations run one at a time:

  grid   the suite sweeps people wait for: `symbolc --bench all`,
         `--bench all -O`, `--verify-schedule`, `--analyze=wide` and
         `--analyze`, in rounds of all five in a seeded order. Before
         the timed rounds, every suite benchmark is run once with and
         once without -O and its answer compared with the one the
         suite pins.
  serve  symbold under one client that sends its next request as soon
         as the last one is answered: suite benchmarks on machine
         configurations the server has not seen yet, in a seeded order
         in which every block of 16 requests asks for each suite
         benchmark once.

Calibration. The host this runs on is shared, and how fast it runs
drifts by 15-40% over seconds to minutes, through the caches more than
through arithmetic. So every CALIB_EVERY_S seconds, between two
operations, the benchmark times one run of a fixed-work kernel
(perfbench/calib) that shares no code with the toolchain and spends
most of its time on cache misses, and scales every reported time by
CALIB_NOMINAL_S over the first quartile of those kernel times. A reported time is therefore
the time the operation would take on a host that runs the kernel in
CALIB_NOMINAL_S: a faster program lowers it, a busier host does not.

--trace 0 reports the end-to-end metrics:
  latency_p25_ms  one operation's latency: the sum over its parts of
                  each part's first-quartile time (grid: the five
                  sweeps of a round; serve: a block of 16 requests,
                  one per benchmark). The first
                  quartile, not the median, because bursts of load on
                  the host slow single operations more than the kernel
                  runs between them can follow.
  peak_rss_mb     the median peak RSS of the program's processes
                  (serve: of the daemon).
  setup_s         median of SETUP_REPS cold starts of the workload's
                  tool, each answering one program, after one untimed
                  start.
--trace 1 runs the same workload with the program's pass
instrumentation exported and reports per-operation layer times and
work counts; it also writes the operation spans to
.bench_run/<workload>.trace.json.
"""

import argparse
import itertools
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import programs  # noqa: E402
import syrf  # noqa: E402

TOOLS = ("symbolc", "symbold")
CALIB_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calib")
JOBS = "2"  # pool width of symbolc and symbold; the machine may be shared
TOOL_TIMEOUT = 120.0
SETUP_REPS = 11
# One kernel run between operations at most this often (seconds).
CALIB_EVERY_S = 0.25
# About the kernel's first-quartile time (Release build) on the 4-vCPU
# 2.0 GHz Xeon VM the benchmark was written on; reported times are
# scaled to a host that runs it this fast.
CALIB_NOMINAL_S = 0.045
# The tools run at their defaults: no SYMBOL_* knob (analyzers, cache
# directory, verifier, ...) of the calling shell reaches them.
TOOL_ENV = {k: v for k, v in os.environ.items()
            if not k.startswith("SYMBOL_")}

# Pass names (or name prefixes ending in - or .) of each layer, as the
# pass instrumentation names them; no pass counts in two layers. The
# middle-end (opt-*) counts as front end: the serve protocol cannot
# ask for it, so only grid runs it. sched is compaction without
# its dependence-graph build, which sched_ddg reports on its own.
# emulate is the sequential re-emulation behind every speedup baseline.
LAYERS = (
    ("front", ("parse", "normalize", "bam-compile", "intcode", "cfg",
               "opt-")),
    ("profile", ("profile",)),
    ("check", ("check-", "verify")),
    ("sched", ("sched.traces", "sched.schedule", "sched.emit")),
    ("sched_ddg", ("sched.ddg",)),
    ("wide", ("wide-",)),
    ("simulate", ("simulate",)),
    ("emulate", ("seq-latency",)),
)


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


class Failure(Exception):
    pass


def first_quartile(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def build():
    """Configure once, then (re)build the tools and the calibration
    kernel; return their directories."""
    bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        raise Failure("not a source checkout: no CMakeLists.txt/src")
    cdir = os.path.join(bdir, "perfbench-calib")
    jobs = str(min(4, os.cpu_count() or 1))
    for src, out, targets in ((".", bdir, TOOLS),
                              (CALIB_SRC, cdir, ("calib",))):
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", src, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                        *targets], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "tools"), os.path.join(cdir, "calib")


def wait_rusage(p, timeout):
    """Wait for @p p, killing it after @p timeout seconds; return its
    exit code and peak RSS in KiB."""
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss


class Passes:
    """Pass-table totals merged from --stats-json documents."""

    def __init__(self):
        self.table = {}
        self.fronts_built = 0

    def add(self, doc):
        for p in doc["passes"]:
            t = self.table.setdefault(p["name"], [0.0, 0, 0])
            t[0] += p["wallSeconds"]
            t[1] += p["invocations"]
            t[2] += p["irOut"]
        self.fronts_built += doc["driver"]["workloadsBuilt"]

    def metrics(self, ops, slowdown):
        def match(name, prefixes):
            return any(name == p or (p[-1] in "-." and name.startswith(p))
                       for p in prefixes)

        def get(name, field):
            return self.table.get(name, [0.0, 0, 0])[field]

        m = {}
        for layer, prefixes in LAYERS:
            secs = sum(t[0] for n, t in self.table.items()
                       if match(n, prefixes))
            m[layer + "_ms_per_op"] = (secs * 1000.0 / ops / slowdown, "ms")
        m["compactions_per_op"] = (get("sched.traces", 1) / ops, "count")
        m["ddg_edges_per_op"] = (get("sched.ddg", 2) / ops, "count")
        m["ici_executed_per_op"] = (get("profile", 2) / ops, "count")
        m["fronts_built_per_op"] = (self.fronts_built / ops, "count")
        return m


class Run:
    """One benchmark run: runs the tools and keeps operation timings,
    failures, peak RSS per process, spans, pass tables and the
    calibration kernel's times."""

    def __init__(self, args, bindir, calib):
        self.args = args
        self.bindir = bindir
        self.calib = calib
        self.rundir = os.path.join(".bench_run", "%s-%d"
                                   % (args.workload, os.getpid()))
        os.makedirs(self.rundir)
        self.rng = random.Random(args.seed)
        self.latencies = {}  # part of an operation -> its times in ms
        self.rss_kb = []
        self.attempted = 0
        self.failed = 0
        self.correct = True  # cleared by a wrong untimed answer
        self.spans = []
        self.passes = Passes()
        self.trace_ops = 0
        self.setup_s = 0.0
        self.calib_s = []
        self.last_calib = None

    def tool(self, name):
        return os.path.join(self.bindir, name)

    def run_tool(self, argv, tag):
        """(exit code, stdout, wall seconds, peak RSS in KiB) of one
        tool process, its output kept under the run directory."""
        out_path = os.path.join(self.rundir, tag + ".out")
        err_path = os.path.join(self.rundir, tag + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen([self.tool(argv[0])] + argv[1:],
                                 stdout=out, stderr=err, env=TOOL_ENV)
            rc, rss = wait_rusage(p, TOOL_TIMEOUT)
            wall = time.perf_counter() - t0
        with open(out_path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        if rc != 0:
            with open(err_path, encoding="utf-8", errors="replace") as f:
                log("%s exited %d: %s" % (" ".join(argv), rc,
                                          f.read()[-2000:]))
        return rc, text, wall, rss

    def calibrate(self, force=False):
        """Time one run of the calibration kernel, unless one ran less
        than CALIB_EVERY_S ago and @p force is not set. Call it only
        between operations."""
        t0 = time.perf_counter()
        if (not force and self.last_calib is not None
                and t0 - self.last_calib < CALIB_EVERY_S):
            return
        p = subprocess.Popen([self.calib], stdout=subprocess.DEVNULL)
        rc, _ = wait_rusage(p, TOOL_TIMEOUT)
        self.last_calib = time.perf_counter()
        if rc != 0:
            raise Failure("calibration kernel exited %d" % rc)
        self.calib_s.append(self.last_calib - t0)

    def slowdown(self):
        """How much slower than the nominal host this one ran."""
        return first_quartile(self.calib_s) / CALIB_NOMINAL_S

    def record(self, part, t0, t1, ok):
        """One part of an operation: its latency, or a failure."""
        self.attempted += 1
        if ok:
            self.latencies.setdefault(part, []).append((t1 - t0) * 1000.0)
        else:
            self.failed += 1

    def span(self, name, t0, t1, rss_kb=None, args=None):
        """One call into the program: its peak RSS, and in traced runs
        its span."""
        if rss_kb is not None:
            self.rss_kb.append(rss_kb)
        if self.args.trace:
            self.spans.append((name, t0, t1, args or {}))

    def write_program(self, tag):
        source, expected = programs.draw(self.rng)
        path = os.path.join(self.rundir, tag + ".pl")
        with open(path, "w") as f:
            f.write(source)
        return path, expected

    def add_stats(self, path):
        with open(path) as f:
            self.passes.add(json.load(f))

    def setup(self, cold_start):
        """Median of SETUP_REPS timed cold starts after an untimed one,
        which leaves the tool and its inputs in the page cache; a
        kernel run precedes each timed start."""
        cold_start(0)
        walls = []
        for i in range(1, SETUP_REPS + 1):
            self.calibrate(force=True)
            walls.append(cold_start(i))
        self.setup_s = statistics.median(walls)


# ---------------------------------------------------------------------
# grid: the suite sweeps

GRID_SWEEPS = (
    ("bench-all", ["--bench", "all"], None),
    ("bench-all-O", ["--bench", "all", "-O"], None),
    ("verify-schedule", ["--verify-schedule"],
     r"0 violation\(s\) across \d+ schedule\(s\)"),
    ("analyze-wide", ["--analyze=wide"],
     r"0 error\(s\) across \d+ wide-code analysis run\(s\)"),
    ("analyze", ["--analyze"], r"0 error\(s\) across \d+ analysis run\(s\)"),
)
SUITE_SIZE = 16
SWEEP_ROW = re.compile(r"^\S+ +\d+ +\d+ +\d+\.\d+$", re.M)
# The suite's pinned answers: each entry of the benchmark table is
# {"name", <source ending in )PL">, "<expected answer>"}.
SUITE_TABLE = os.path.join("src", "suite", "benchmarks.cc")
SUITE_ENTRY = re.compile(
    r'v\.push_back\(\{"(\w+)",.*?\)PL",\s*"((?:[^"\\]|\\.)*)"\}\);', re.S)


def grid_ok(rc, text, summary):
    if rc != 0:
        return False
    if summary:
        lines = text.strip().splitlines()
        return bool(lines) and re.fullmatch(summary, lines[-1]) is not None
    return len(SWEEP_ROW.findall(text)) == SUITE_SIZE


def answer_ok(rc, text, expected):
    """Whether a symbolc run printed exactly @p expected as its answer."""
    m = re.search(r"^answer:\n(.*?)\n\n", text, re.S | re.M)
    return rc == 0 and m is not None and m.group(1) + "\n" == expected


def suite_answers():
    """{benchmark name: pinned answer} of the whole suite."""
    with open(SUITE_TABLE) as f:
        entries = SUITE_ENTRY.findall(f.read())
    if len(entries) != SUITE_SIZE:
        raise Failure("found %d of %d answers in %s"
                      % (len(entries), SUITE_SIZE, SUITE_TABLE))
    # The table's C string escapes mean the same in JSON.
    return {name: json.loads('"%s"' % text) for name, text in entries}


def check_suite_answers(run):
    """Untimed: every suite benchmark, with and without -O, answers
    as the suite pins it. The sweeps only compare the VLIW and the
    sequential run of one compilation, which a front-end bug leaves
    in agreement."""
    for name, expected in sorted(suite_answers().items()):
        for flags in ([], ["-O"]):
            rc, out, _, _ = run.run_tool(["symbolc", "--bench", name,
                                          *flags, "--quiet"], "answer")
            if not answer_ok(rc, out, expected):
                log("%s: wrong answer" % " ".join([name, *flags]))
                run.correct = False


def grid(run):
    def cold_start(i):
        path, expected = run.write_program("setup%d" % i)
        rc, text, wall, _ = run.run_tool(["symbolc", path, "--quiet"],
                                         "setup")
        if not answer_ok(rc, text, expected):
            raise Failure("setup program answered wrongly")
        return wall

    run.setup(cold_start)
    check_suite_answers(run)
    stats = os.path.join(run.rundir, "stats.json")
    t_start = time.perf_counter()
    while (run.attempted == 0
           or time.perf_counter() - t_start < run.args.seconds):
        order = list(GRID_SWEEPS)
        run.rng.shuffle(order)
        for name, flags, summary in order:
            argv = ["symbolc", *flags, "--jobs", JOBS, "--quiet"]
            if run.args.trace:
                argv += ["--stats-json", stats]
            run.calibrate()
            t0 = time.perf_counter()
            rc, text, _, rss = run.run_tool(argv, "sweep")
            t1 = time.perf_counter()
            run.span(name, t0, t1, rss)
            ok = grid_ok(rc, text, summary)
            run.record(name, t0, t1, ok)
            if ok and run.args.trace:
                run.add_stats(stats)
        run.trace_ops += 1


# ---------------------------------------------------------------------
# serve: symbold under a closed loop

# What a request may ask for beside the benchmark (src/server/proto.hh):
# indexing, tag expansion, prototype vs ideal machine, unit count and
# compaction mode. Suite programs on these machines make 16 384 keys,
# sent without repeats: each request misses the response cache and
# hits one of the 64 front ends the workload cache keeps, so
# compaction and simulation run for every request.
SERVE_UNITS = range(1, 65)
SERVE_MODES = ("trace", "bb")


def serve_requests(rng, answers):
    """(frame, expected answer, benchmark) requests in a seeded order.
    Each run of 16 requests asks for every benchmark once, so the mix
    of cheap and costly programs is the same whatever the seed and
    however many requests a run gets through."""
    machines = list(itertools.product((True, False), (False, True),
                                      (False, True), SERVE_UNITS,
                                      SERVE_MODES))
    orders = {name: rng.sample(machines, len(machines))
              for name in sorted(answers)}
    for i in range(len(machines)):
        for name in rng.sample(sorted(answers), len(answers)):
            indexing, expand, proto, units, mode = orders[name][i]
            yield (syrf.compile_request("", name, indexing, expand, proto,
                                        units, mode),
                   answers[name], name)


class Daemon:
    """One symbold process on a socket in the run directory."""

    def __init__(self, run, tag):
        self.sock = os.path.join(run.rundir, "symbold.sock")
        self.log = open(os.path.join(run.rundir, tag + ".err"), "wb")
        self.proc = subprocess.Popen(
            [run.tool("symbold"), "--socket", self.sock, "--jobs", JOBS,
             "--quiet"], stdout=self.log, stderr=self.log, env=TOOL_ENV)
        self.rss_kb = None

    def connect(self):
        deadline = time.perf_counter() + 30
        while True:
            try:
                return syrf.Client(self.sock)
            except (FileNotFoundError, ConnectionRefusedError):
                if (self.proc.poll() is not None
                        or time.perf_counter() > deadline):
                    raise Failure("symbold did not come up")
                time.sleep(0.0005)

    def stop(self):
        """Drain (or kill) the daemon and wait for it to exit."""
        if self.proc.returncode is None:
            try:
                c = self.connect()
                c.drain()
                c.close()
            except (OSError, Failure, syrf.ProtocolError):
                self.proc.kill()
            rc, self.rss_kb = wait_rusage(self.proc, 30)
            if rc != 0:
                log("symbold exited %d" % rc)
        self.log.close()


def serve(run):
    daemons = []

    def cold_start(i):
        source, expected = programs.draw(run.rng)
        t0 = time.perf_counter()
        daemons.append(Daemon(run, "symbold%d" % i))
        c = daemons[-1].connect()
        answer, _ = c.compile(syrf.compile_request(source))
        wall = time.perf_counter() - t0
        c.close()
        if answer != expected:
            raise Failure("setup program answered wrongly")
        if i < SETUP_REPS:
            daemons[-1].stop()
        return wall

    try:
        run.setup(cold_start)
        serve_loop(run, daemons[-1])
        if run.args.trace:
            c = daemons[-1].connect()
            doc = json.loads(c.stats())
            c.close()
            run.passes.add(doc)
            run.trace_ops = doc["server"]["completed"] / SUITE_SIZE
    finally:
        for d in daemons:
            d.stop()
    run.rss_kb = [daemons[-1].rss_kb]


def serve_loop(run, daemon):
    requests = serve_requests(run.rng, suite_answers())
    deadline = time.perf_counter() + run.args.seconds
    c = daemon.connect()
    try:
        while run.attempted == 0 or time.perf_counter() < deadline:
            item = next(requests, None)
            if item is None:  # every key sent: the run ends early
                return
            frame, expected, name = item
            run.calibrate()
            t0 = time.perf_counter()
            try:
                answer, cycles = c.compile(frame)
                ok = answer == expected and cycles > 0
            except syrf.ProtocolError as e:
                log("%s: %s" % (name, e))
                ok = False
            t1 = time.perf_counter()
            run.span(name, t0, t1)
            run.record(name, t0, t1, ok)
    finally:
        c.close()


# ---------------------------------------------------------------------

WORKLOADS = {"grid": grid, "serve": serve}


def end_to_end(run, slowdown):
    lat = sum(first_quartile(v) for v in run.latencies.values())
    return {
        "latency_p25_ms": (lat / slowdown, "ms"),
        "peak_rss_mb": (statistics.median(run.rss_kb) / 1024.0, "MiB"),
        "setup_s": (run.setup_s / slowdown, "s"),
    }


def write_spans(run, path):
    """Operation spans in Chrome trace-event format."""
    t0 = min(s[1] for s in run.spans)
    events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
               "ts": (a - t0) * 1e6, "dur": (b - a) * 1e6, "args": args}
              for name, a, b, args in run.spans]
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bindir, calib = build()
    except (Failure, subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    run = Run(args, bindir, calib)
    try:
        WORKLOADS[args.workload](run)
    except (Failure, OSError, syrf.ProtocolError) as e:
        log("%s: %s (outputs kept in %s)" % (args.workload, e, run.rundir))
        return 1
    if not run.latencies:
        log("no operation completed")
        return 1

    slowdown = run.slowdown()
    if args.trace:
        metrics = run.passes.metrics(max(run.trace_ops, 1), slowdown)
        write_spans(run, os.path.join(".bench_run",
                                      args.workload + ".trace.json"))
    else:
        metrics = end_to_end(run, slowdown)
    log("%s: %d operation parts, %d failed; %d kernel runs, host %.3fx "
        "slower than nominal"
        % (args.workload, run.attempted, run.failed, len(run.calib_s),
           slowdown))
    correct = run.correct and run.failed == 0
    if correct:
        shutil.rmtree(run.rundir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
