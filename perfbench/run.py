#!/usr/bin/env python3
"""The ftsynth benchmark: one command, three workloads, checked outputs.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload bbw_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --pin        # recompute perfbench/pins.json

The first run builds the Release `ftsynth` binary plus the benchmark's own
generator and tracer from the checkout's sources into `.bench_build/`
(perfbench/CMakeLists.txt); later runs only re-check the build. Inputs are
written to `.bench_work/` from `--seed`; the binary under test only ever
sees those files.

Workloads (perfbench/NOTES.md gives the reasons behind each input):

  bbw_cold          a fresh `ftsynth analyse bbw.mdl --jobs 1` process per
                    pass on the full brake-by-wire model, rates scaled by
                    the seed; closed loop, one pass at a time.
  lanes_cutsets     a fresh `ftsynth analyse --jobs 2` process per input and
                    engine (micsup, zbdd) over seeded replicated-lane models
                    and one adversarial product model under --order sift.
  daemon_edit_loop  one warm `ftsynth serve --jobs 1 --executors 2` daemon
                    driven by 2 closed-loop connections, each replaying a
                    seeded editing session of replay / recompute / edit /
                    xml requests.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of the traced pipeline
(perfbench/trace.cpp), which re-composes the pipeline from public calls and
must produce the CLI's bytes. The line before the result describes the host.
Every output is checked against perfbench/pins.json (digests recorded with
the cold CLI when the benchmark was created) and failures count in
`failed`. Every child process runs under a wall-clock timeout and an
address-space cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
PINS = BENCH / "pins.json"
EVENT_TREE = ROOT / "tests" / "openpsa" / "event_tree.xml"

MEMORY_CAP = 4 << 30      # address-space cap per child process, bytes
OP_TIMEOUT_S = 120.0      # wall-clock cap per child process or request
DEADLINE_MS = 120000      # the wire budget every daemon request carries
SETUP_REPEATS = 7         # set-ups per run; setup_s is their median
DAEMON_SETUP_REPEATS = 3  # a daemon set-up takes seconds, not milliseconds

# The seed scales every failure rate of a bbw_cold or lanes_cutsets model
# by one factor from this table. The scale changes every probability in the
# output but none of the work, so seeds vary the outputs, not the cost.
RATE_SCALES = [0.35, 0.5, 0.7, 1.0, 1.4, 2.0, 2.8, 4.0]

# lanes_cutsets: (pin key, generator arguments). Minimal cut sets per model:
# 27,004 / 125,004 / 28,565 / 130,325 replicated, 16,384 adversarial.
LANE_MODELS = [
    ("c3s30", ["replicated", "3", "30"]),
    ("c3s50", ["replicated", "3", "50"]),
    ("c4s13", ["replicated", "4", "13"]),
    ("c4s19", ["replicated", "4", "19"]),
    ("adv14", ["adversarial", "14"]),
]
LANE_ENGINES = ["micsup", "zbdd"]

# daemon_edit_loop: 32 single-rate edits of the base BBW model, split
# between the two connections (variant k belongs to connection k % 2).
DAEMON_CONNECTIONS = 2
# A one-thread pool: with two threads the daemon's parallel stages wait for
# their slowest worker, which made the wall-clock metrics follow the host's
# CPU steal (NOTES.md).
DAEMON_JOBS = 1
EDIT_VARIANTS = 32
# Each round recomputes one of these in turn. They cost about as much as the
# round's edit, so every round costs the same and the p90 falls inside the
# slow class rather than on the edge between two costs. (`report` costs
# twice as much and is left out for that reason; see NOTES.md.)
HEAVY_RECOMPUTES = [
    {"command": "analyse", "engine": "zbdd"},
    {"command": "fmea"},
    {"command": "analyse", "verbose": True},
]
MIN_REQUESTS = 100
EVENT_TREE_ORACLE = {  # tests/test_openpsa.cpp, hand-computed
    "LOSP/CORE-DAMAGE": (0.0725, 2, 2),
    "LOSP/SAFE": (0.4275, 1, 3),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or set-up failure)."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fnv1a(data: bytes) -> str:
    value = 0xCBF29CE484222325
    for byte in data:
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{value:016x}"


def median(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# --------------------------------------------------------------------------
# Build and host context


def binary(name: str) -> Path:
    if name == "ftsynth":
        return BUILD / "ftsynth_tools" / "ftsynth"
    return BUILD / name


def build() -> dict:
    """Builds (or re-checks) the Release tree; returns the CMake cache."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no ftsynth sources next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, timeout=840)
        if result.returncode != 0:
            sys.stderr.write(result.stdout.decode(errors="replace")[-4000:])
            raise BenchError("build failed: " + " ".join(step))
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        match = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
        if match:
            cache[match.group(1)] = match.group(2)
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("refusing to report from a non-Release build "
                         f"({cache.get('CMAKE_BUILD_TYPE')!r})")
    for name in ("ftsynth", "perfbench_gen", "perfbench_trace"):
        if not binary(name).is_file():
            raise BenchError(f"build produced no {name}")
    return cache


def host_context(cache: dict) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        if result.returncode == 0:
            commit = result.stdout.decode().strip()
    sources = hashlib.sha256()
    for directory in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*")):
            if path.is_file():
                sources.update(str(path.relative_to(ROOT)).encode())
                sources.update(path.read_bytes())
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "compiler": version.stdout.decode().splitlines()[0]
        if version.returncode == 0 else compiler,
        "git_commit": commit,
        "source_sha256": sources.hexdigest()[:16],
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
    }


# --------------------------------------------------------------------------
# Guarded child processes


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    rss_kb: int
    exit_code: int
    timed_out: bool
    output: bytes


def run_op(argv: list[str], out_path: Path, cwd: Path | None = None,
           timeout: float = OP_TIMEOUT_S) -> Op:
    """Runs one guarded child; stdout goes to `out_path` and is returned."""
    err_path = out_path.with_name(out_path.name + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd,
                                preexec_fn=_limit_child)
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
              proc.returncode, timed_out.is_set(), out_path.read_bytes())


def generate(args: list[str], out_path: Path) -> bytes:
    op = run_op([str(binary("perfbench_gen"))] + args, out_path)
    if op.exit_code != 0:
        raise BenchError("generator failed: " + " ".join(args))
    return op.output


# --------------------------------------------------------------------------
# Inputs


def rate_lines(text: str) -> list[re.Match]:
    return list(re.finditer(r"^(\s*Rate )(\S+)$", text, re.MULTILINE))


def scale_rates(text: str, scale: float) -> str:
    return re.sub(r"^(\s*Rate )(\S+)$",
                  lambda m: m.group(1) + repr(float(m.group(2)) * scale),
                  text, flags=re.MULTILINE)


def edit_variant(base: str, k: int) -> str:
    """Edit k of the base model: one malfunction Rate rewritten."""
    lines = rate_lines(base)
    match = lines[(k * 37) % len(lines)]
    factor = 3.0 if (k // 2) % 2 == 0 else 0.25
    value = repr(float(match.group(2)) * factor)
    return base[:match.start(2)] + value + base[match.end(2):]


def scaled_model(work: Path, name: str, gen_args: list[str],
                 scale_index: int) -> Path:
    """A generated model with every rate scaled by RATE_SCALES[index]."""
    base = write_model(work, name + ".base", gen_args)
    model = work / name
    model.write_text(scale_rates(base.read_text(), RATE_SCALES[scale_index]))
    return model


def lane_args(key: str, engine: str) -> list[str]:
    args = ["--jobs", "2", "--engine", engine]
    if key.startswith("adv"):
        args += ["--order", "sift"]
    return args


def write_model(work: Path, name: str, gen_args: list[str]) -> Path:
    path = work / name
    generate([gen_args[0], str(path)] + gen_args[1:], work / (name + ".gen"))
    return path


def export_tops(model: Path, directory: Path) -> list[str]:
    """Per-top Open-PSA exports of `model`; returns the top names."""
    directory.mkdir(parents=True, exist_ok=True)
    listing = generate(["openpsa-tops", str(model), str(directory)],
                       directory / "tops.txt")
    return [line.split(" ", 1)[1] for line in listing.decode().splitlines()]


def fresh_work(name: str) -> Path:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


# --------------------------------------------------------------------------
# Output checks


def split_sections(output: bytes) -> list[tuple[str, bytes]]:
    """The per-top sections of an `analyse` report, with their top names."""
    starts = [m.start() for m in re.finditer(rb"^=== Top event: ", output,
                                             re.MULTILINE)]
    sections = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else len(output)
        header = output[start:output.index(b"\n", start)].decode()
        top = header[len("=== Top event: "):].rsplit(" at ", 1)[0]
        sections.append((top, output[start:end]))
    if not starts or starts[0] != 0:
        return []
    return sections


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, ok: bool, what: str) -> bool:
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(what)
        return ok


def op_ok(op: Op, expected: str | None) -> bool:
    if op.timed_out or op.exit_code != 0:
        return False
    return expected is None or digest(op.output) == expected


# --------------------------------------------------------------------------
# Traced pipeline


def traced_pipeline(model: Path, extra: list[str], out_path: Path
                    ) -> tuple[Op, dict]:
    op = run_op([str(binary("perfbench_trace")), "pipeline", str(model),
                 str(out_path.with_suffix(".report"))] + extra, out_path)
    report = out_path.with_suffix(".report")
    stats = json.loads(op.output) if op.exit_code == 0 else {}
    op.output = report.read_bytes() if report.exists() else b""
    return op, stats


def merge_pipeline(total: dict, stats: dict) -> None:
    total["wall_s"] = total.get("wall_s", 0.0) + stats["wall_s"]
    for group in ("spans", "counts"):
        bucket = total.setdefault(group, {})
        for name, value in stats[group].items():
            if name == "analysis.peak_sets":
                bucket[name] = max(bucket.get(name, 0), value)
            else:
                bucket[name] = bucket.get(name, 0) + value


FTA_SPANS = ["fta.probe", "fta.synthesise", "fta.deduplicate"]
ANALYSIS_SPANS = ["analysis.tree_stats", "analysis.cut_sets",
                  "analysis.common_cause", "analysis.reliability",
                  "analysis.render"]


def pipeline_layers(runs: list[dict], traced_walls: list[float],
                    untraced_walls: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes: each span's median seconds,
    the counters (identical in every pass) and the trace's own quality.
    Shares are of the traced process's wall time, so process start and exit
    count as uncovered."""
    def seconds(name: str) -> float:
        return median([run["spans"].get(name, 0.0) for run in runs])

    def share(names) -> float:
        return median([sum(run["spans"].get(n, 0.0) for n in names) / wall
                       for run, wall in zip(runs, traced_walls)])

    counts = runs[0]["counts"]
    hits, misses = counts["cone.hits"], counts["cone.misses"]
    layers = {
        "fta.probe_s": seconds("fta.probe"),
        "fta.synthesise_s": seconds("fta.synthesise"),
        "fta.deduplicate_s": seconds("fta.deduplicate"),
        "fta.dedup_keep_ratio": counts["fta.nodes"] / counts["fta.nodes_raw"],
        "analysis.cut_sets_s": seconds("analysis.cut_sets"),
        "analysis.reliability_s": seconds("analysis.reliability"),
        "analysis.common_cause_s": seconds("analysis.common_cause"),
        "analysis.render_s": seconds("analysis.render"),
        "analysis.cone_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "mdl.parse_s": seconds("mdl.parse"),
        "trace.coverage": share(runs[0]["spans"]),
        "trace.overhead_frac": median(traced_walls) / median(untraced_walls)
        - 1,
        "trace.fta_frac": share(FTA_SPANS),
        "trace.analysis_frac": share(ANALYSIS_SPANS),
    } | {name: value for name, value in counts.items()
         if not name.startswith("cone.")}
    uncovered = {
        "process_start_and_exit_s": median(
            [wall - run["wall_s"] for run, wall in zip(runs, traced_walls)]),
        "between_spans_s": median(
            [run["wall_s"] - sum(run["spans"].values()) for run in runs]),
        "output_write_s": seconds("output.write"),
        "teardown_s": seconds("teardown"),
    }
    return layers, uncovered


# --------------------------------------------------------------------------
# Daemon sessions


class Connection:
    """Line-delimited JSON client on one daemon connection."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(OP_TIMEOUT_S)
        self.sock.connect(path)
        self.buffer = b""

    def call(self, line: str) -> dict:
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buffer += chunk
        response, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(response)

    def close(self) -> None:
        self.sock.close()


class Daemon:
    """One guarded `ftsynth serve` process in the work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.sock = os.path.relpath(work / "d.sock")
        (work / "d.sock").unlink(missing_ok=True)
        self.log = open(work / "serve.log", "wb")
        self.proc = subprocess.Popen(
            [str(binary("ftsynth")), "serve", "--socket", "d.sock", "--jobs",
             str(DAEMON_JOBS), "--executors", "2",
             "--max-deadline-ms", str(DEADLINE_MS)],
            cwd=work, stdout=self.log, stderr=self.log,
            preexec_fn=_limit_child)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited during start-up")
            try:
                Connection(self.sock).close()
                return
            except OSError:
                time.sleep(0.01)
        self.stop()
        raise BenchError("daemon socket never came up")

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = fields.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_kb(self) -> int:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def stop(self) -> None:
        if self.log.closed:
            return
        if self.proc.poll() is None:
            try:
                connection = Connection(self.sock)
                connection.call(json.dumps({"command": "shutdown"}))
                connection.close()
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


@dataclass
class Expect:
    """What a daemon response must contain."""
    kind: str                  # analyse | tops | whole | xml | none
    variant: str = ""
    tops: list[str] = field(default_factory=list)
    key: str = ""


class Session:
    """Inputs and pins of one connection's editing session."""

    def __init__(self, conn: int, work: Path, base_text: str,
                 variants: list[tuple[str, str]], tops: list[str],
                 xml: list[tuple[str, str]], pins: dict, pin_prefix: str,
                 base_variant: str):
        self.conn = conn
        self.dir = work / f"c{conn}"
        self.model = f"c{conn}/model.mdl"
        self.variants = variants          # (variant name, file under dir)
        self.tops = tops
        self.xml = xml                    # (pin name, path relative to work)
        self.pins = pins
        self.prefix = pin_prefix
        self.base_variant = base_variant
        (self.dir / "base.mdl").write_text(base_text)
        (self.dir / "model.mdl").write_text(base_text)

    def pin(self, key: str) -> str | None:
        return self.pins.get(f"{self.prefix}/{key}")

    def check(self, expect: Expect, response: dict) -> bool:
        if response.get("status") != "ok" or response.get("exit_code") != 0:
            return False
        output = response.get("output", "").encode()
        if expect.kind == "none":
            return True
        if expect.kind in ("analyse", "tops"):
            tops = self.tops if expect.kind == "analyse" else expect.tops
            sections = split_sections(output)
            if [top for top, _ in sections] != tops:
                return False
            for top, body in sections:
                pinned = self.pin(f"{expect.variant}/analyse/{top}")
                if pinned is not None and digest(body) != pinned:
                    return False
                if pinned is None and expect.variant == self.base_variant:
                    return False
            return True
        if expect.kind == "whole":
            pinned = self.pin(expect.key)
            return pinned is None or digest(output) == pinned
        if expect.kind == "xml":
            pinned = self.pin(expect.key)
            if pinned is not None and digest(output) != pinned:
                return False
            if expect.key == "xml/event_tree":
                return check_sequences(response.get("sequences"))
            return True
        return False


def check_sequences(rows) -> bool:
    if not isinstance(rows, list) or len(rows) != len(EVENT_TREE_ORACLE):
        return False
    for row in rows:
        oracle = EVENT_TREE_ORACLE.get(row.get("name"))
        if oracle is None:
            return False
        probability, cut_sets, min_order = oracle
        if abs(row.get("probability", -1) - probability) > 1e-15:
            return False
        if row.get("cut_sets") != cut_sets or row.get("min_order") != min_order:
            return False
    return True


@dataclass
class Request:
    cls: str          # replay | recompute | edit | xml | warmup
    line: str
    expect: Expect
    memo: bool        # a replay of it must be answered byte-identically


class Player:
    """Plays one connection's seeded session: closed loop, one request at a
    time. The plan depends only on the seed, never on timing."""

    def __init__(self, session: Session, rng: random.Random):
        self.s = session
        self.rng = rng
        self.edits = list(session.variants)
        rng.shuffle(self.edits)
        self.xml = list(session.xml)
        rng.shuffle(self.xml)
        self.variant = session.base_variant
        self.pool: list[Request] = []       # replayable on current content
        self.xml_pool: list[Request] = []   # xml files never change
        self.first: dict[str, bytes] = {}   # variant|request -> first output
        self.samples: list[tuple[str, float]] = []
        self.outputs: list[bytes] = []      # kept for the in-process check
        self.keep_outputs = False
        self.script: list[str] = []
        self.round_walls: list[float] = []

    def request(self, cls: str, fields: dict, expect: Expect,
                memo: bool = True) -> Request:
        body = {"model": self.s.model, "deadline_ms": DEADLINE_MS} | fields
        return Request(cls, json.dumps(body, sort_keys=True), expect, memo)

    def warmup(self) -> list[Request]:
        return [self.request("warmup", {"command": "load"}, Expect("none"),
                             memo=False),
                self.request("warmup", {"command": "analyse"},
                             Expect("analyse", self.variant))]

    def heavy(self, fields: dict) -> Request:
        command = fields["command"]
        if command == "analyse":
            expect = Expect("analyse", self.variant)
        else:
            expect = Expect("whole", self.variant, key=f"{self.variant}/{command}")
        return self.request("recompute", dict(fields), expect,
                            memo=not fields.get("verbose", False))

    def light(self) -> Request:
        """`analyse` of every top of one seeded output port (one wheel's
        hazards on BBW), among the ports with the most tops, so the cost
        does not depend on the draw."""
        ports: dict[str, list[str]] = {}
        for top in self.s.tops:
            ports.setdefault(top.split("-", 1)[1], []).append(top)
        widest = max(len(tops) for tops in ports.values())
        tops = self.rng.choice([tops for tops in ports.values()
                                if len(tops) == widest])
        return self.request("recompute", {"command": "analyse", "tops": tops},
                            Expect("tops", self.variant, tops))

    def round(self, round_index: int) -> list:
        """One editing round of 10 requests: edit, 2 recomputes, 1 xml and
        6 replays."""
        if not self.edits or not self.xml:
            return []
        name, path = self.edits.pop(0)
        xml_key, xml_path = self.xml.pop(0)
        heavy = HEAVY_RECOMPUTES[(round_index + self.s.conn)
                                 % len(HEAVY_RECOMPUTES)]
        return [("edit", name, path), "replay", ("heavy", heavy), "replay",
                ("xml", xml_key, xml_path), "replay", ("light",), "replay",
                "replay", "replay"]

    def resolve(self, step) -> Request:
        if isinstance(step, Request):
            return step
        if step == "replay":
            return self.rng.choice(self.pool + self.xml_pool)
        if step[0] == "heavy":
            return self.heavy(step[1])
        if step[0] == "light":
            return self.light()
        if step[0] == "edit":
            _, name, path = step
            shutil.copyfile(self.s.dir / path, self.s.dir / "model.mdl")
            self.script.append(f"W\t{self.s.model}\tc{self.s.conn}/{path}")
            self.variant = name
            self.pool = []
            return self.request("edit", {"command": "analyse"},
                                Expect("analyse", name))
        if step[0] == "xml":
            _, key, path = step
            body = {"command": "analyse", "model": path,
                    "deadline_ms": DEADLINE_MS}
            return Request("xml", json.dumps(body, sort_keys=True),
                           Expect("xml", key=key), True)
        raise ValueError(f"unknown session step {step!r}")

    def send(self, connection: Connection, request: Request,
             tally: Tally) -> None:
        self.script.append(f"R\t{request.cls}\t{request.line}")
        start = time.perf_counter()
        try:
            response = connection.call(request.line)
        except (OSError, ValueError) as error:
            tally.record(False, f"c{self.s.conn} {request.cls}: {error}")
            raise
        elapsed = time.perf_counter() - start
        self.samples.append((request.cls, elapsed * 1000.0))
        ok = self.s.check(request.expect, response)
        output = response.get("output", "").encode()
        if self.keep_outputs:
            self.outputs.append(output)
        if ok and request.memo:
            key = f"{request.expect.variant}|{request.line}"
            first = self.first.setdefault(key, output)
            ok = first == output
        tally.record(ok, f"c{self.s.conn} {request.cls} {request.line[:160]}")
        if request.memo and request.cls != "replay":
            (self.xml_pool if request.cls == "xml" else self.pool).append(
                Request("replay", request.line, request.expect, True))

    def play(self, connection: Connection, requests: list, tally: Tally) -> None:
        for step in requests:
            self.send(connection, self.resolve(step), tally)


def daemon_sessions(work: Path, base_text: str, tops: list[str],
                    xml_names: list[tuple[str, str]], pins: dict,
                    prefix: str, variant_ids: list[list[int]],
                    base_variant: str) -> list[Session]:
    sessions = []
    for conn, ids in enumerate(variant_ids):
        directory = work / f"c{conn}"
        directory.mkdir(parents=True, exist_ok=True)
        variants = []
        for k in ids:
            name = f"e{k}"
            (directory / f"{name}.mdl").write_text(edit_variant(base_text, k))
            variants.append((name, f"{name}.mdl"))
        xml = []
        for key, source in xml_names:
            target = directory / Path(source).name
            shutil.copyfile(source, target)
            xml.append((key, str(target.relative_to(work))))
        sessions.append(Session(conn, work, base_text, variants, tops, xml,
                                pins, prefix, base_variant))
    return sessions


def run_sessions(daemon: Daemon, players: list[Player], tally: Tally,
                 seconds: float, min_requests: int, max_rounds: int | None
                 ) -> float:
    """Runs every player's rounds concurrently until time and the request
    floor are both met; returns the timed wall time."""
    start = time.perf_counter()
    sent = [0]
    lock = threading.Lock()
    errors = []

    def drive(player: Player) -> None:
        connection = Connection(daemon.sock)
        try:
            round_index = 0
            while max_rounds is None or round_index < max_rounds:
                with lock:
                    enough = sent[0] >= min_requests
                if max_rounds is None and enough and \
                        time.perf_counter() - start >= seconds:
                    break
                steps = player.round(round_index)
                if not steps:
                    break
                round_start = time.perf_counter()
                player.play(connection, steps, tally)
                player.round_walls.append(time.perf_counter() - round_start)
                with lock:
                    sent[0] += len(steps)
                round_index += 1
        except Exception as error:  # noqa: BLE001 -- reported as a failure
            errors.append(error)
        finally:
            connection.close()

    threads = [threading.Thread(target=drive, args=(p,)) for p in players]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        tally.record(False, f"session aborted: {errors[0]}")
    return time.perf_counter() - start


def warm_up(daemon: Daemon, players: list[Player], tally: Tally) -> None:
    def drive(player: Player) -> None:
        connection = Connection(daemon.sock)
        try:
            player.play(connection, player.warmup(), tally)
        finally:
            connection.close()

    threads = [threading.Thread(target=drive, args=(p,)) for p in players]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Warm-up requests stay in the replay script but are not samples.
    for player in players:
        player.samples.clear()
        player.outputs.clear()


def in_process_replay(work: Path, players: list[Player], tally: Tally
                      ) -> tuple[dict, list[list[tuple[str, float, str]]]]:
    """Replays the recorded scripts through ServiceRunner::execute."""
    scripts = []
    for player in players:
        path = work / f"script{player.s.conn}.txt"
        path.write_text("\n".join(player.script) + "\n")
        scripts.append(str(path.relative_to(work)))
    # Restore every working copy to the base content first.
    for player in players:
        shutil.copyfile(player.s.dir / "base.mdl", player.s.dir / "model.mdl")
    op = run_op([str(binary("perfbench_trace")), "service", str(DAEMON_JOBS)]
                + scripts,
                work / "service.out", cwd=work)
    if op.exit_code != 0 or op.timed_out:
        raise BenchError("in-process service replay failed")
    lines = op.output.decode().splitlines()
    summary = json.loads(lines[-1])
    per_conn: list[list[tuple[str, float, str]]] = [[] for _ in players]
    for line in lines[:-1]:
        conn, _, cls, ms, code, fnv = line.split()
        tally.record(code == "0", f"in-process {cls} exit {code}")
        if cls != "warmup":
            per_conn[int(conn)].append((cls, float(ms), fnv))
    return summary, per_conn


def service_layers(players: list[Player], summary: dict,
                   executes: list[list[tuple[str, float, str]]],
                   tally: Tally) -> dict:
    client = {cls: [] for cls in ("replay", "recompute", "edit", "xml")}
    execute = {cls: [] for cls in ("replay", "recompute", "edit", "xml")}
    wire = []
    for player, rows in zip(players, executes):
        samples = player.samples
        if not tally.record(len(samples) == len(rows),
                            "in-process replay request count differs"):
            continue
        for (cls, client_ms), (cls2, execute_ms, fnv), output in zip(
                samples, rows, player.outputs):
            tally.record(cls == cls2 and fnv == fnv1a(output),
                         f"in-process output differs from the daemon ({cls})")
            if cls in client:
                client[cls].append(client_ms)
                execute[cls].append(execute_ms)
            wire.append(client_ms - execute_ms)
    hits, misses = summary.get("cone.hits", 0), summary.get("cone.misses", 0)
    layers = {
        "openpsa.import_s": summary.get("openpsa.import_s", 0.0),
        "service.xml_ms.p50": median(client["xml"]),
        "service.replay_ms.p50": median(client["replay"]),
        "service.recompute_ms.p50": median(client["recompute"]),
        "service.edit_ms.p50": median(client["edit"]),
        "service.execute_ms.replay": median(execute["replay"]),
        "service.execute_ms.recompute": median(execute["recompute"]),
        "service.execute_ms.edit": median(execute["edit"]),
        "service.wire_ms.p50": median(wire),
    }
    return layers, (hits / (hits + misses) if hits + misses else 0.0)


# --------------------------------------------------------------------------
# Workloads


@dataclass
class Result:
    tally: Tally
    metrics: dict
    info: dict = field(default_factory=dict)


def timed_setup(setup, repeats: int = SETUP_REPEATS):
    """Runs `setup` several times; returns (last value, median seconds)."""
    times, value = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        value = setup()
        times.append(time.perf_counter() - start)
    return value, median(times)


@dataclass
class ColdInput:
    """One `ftsynth analyse` process of a cold workload's pass."""
    key: str          # pin key: "<workload>/<model>/<scale>" or "bbw/<scale>"
    model: Path
    args: list[str]   # analyse flags


def run_cold(inputs: list[ColdInput], probe: ColdInput, work: Path,
             setup_s: float, seconds: float, trace: bool, pins: dict
             ) -> Result:
    """A closed loop of passes over `inputs`, one process at a time. Inputs
    sharing a pin key (one model under several engines) must also agree
    byte for byte."""
    tally = Tally()
    ftsynth = str(binary("ftsynth"))

    def analyse(item: ColdInput) -> Op:
        op = run_op([ftsynth, "analyse", str(item.model)] + item.args,
                    work / "out.txt")
        tally.record(op_ok(op, pins.get(item.key)) and item.key in pins,
                     f"{item.key} {' '.join(item.args)}: exit {op.exit_code}")
        return op

    if not trace:
        walls, cpus, op_walls, rss = [], [], [], 0
        start = time.perf_counter()
        while len(walls) < 3 or time.perf_counter() - start < seconds:
            ops, outputs = [], {}
            for item in inputs:
                op = analyse(item)
                outputs.setdefault(item.key, []).append(op.output)
                ops.append(op)
            for key, seen in outputs.items():
                if len(seen) > 1:
                    tally.record(len(set(seen)) == 1, f"{key}: engines disagree")
            walls.append(sum(op.wall_s for op in ops))
            cpus.append(sum(op.cpu_s for op in ops))
            op_walls += [op.wall_s * 1000.0 for op in ops]
            rss = max([rss] + [op.rss_kb for op in ops])
        metrics = {
            "setup_s": setup_s,
            "pass_s.p50": median(walls),
            "cpu_s.per_pass": sum(cpus) / len(cpus),
            "peak_rss_mb": rss / 1024.0,
            "latency_ms.p90": p90(op_walls),
        }
        return Result(tally, metrics, {"passes": len(walls),
                                       "operations": len(op_walls)})

    # Traced: untraced and traced processes alternate, input by input.
    runs, traced, untraced = [], [], []
    start = time.perf_counter()
    while len(runs) < 3 or time.perf_counter() - start < seconds:
        total: dict = {}
        traced_wall = untraced_wall = 0.0
        for item in inputs:
            op = analyse(item)
            untraced_wall += op.wall_s
            top, stats = traced_pipeline(item.model, item.args,
                                         work / "trace.json")
            tally.record(top.exit_code == 0 and top.output == op.output,
                         f"traced {item.key} differs from the CLI")
            traced_wall += top.wall_s
            if stats:
                merge_pipeline(total, stats)
        runs.append(total)
        traced.append(traced_wall)
        untraced.append(untraced_wall)
    layers, uncovered = pipeline_layers(runs, traced, untraced)
    service, cone = service_probe(work, probe, pins, tally)
    return Result(tally, layers | service, {"uncovered": uncovered,
                                            "service_cone_hit_ratio": cone,
                                            "traced_passes": len(runs)})


def service_probe(work: Path, item: ColdInput, pins: dict, tally: Tally
                  ) -> tuple[dict, float]:
    """Service-layer metrics on a cold workload's model: two editing rounds
    on one connection against a fresh daemon, then the same requests
    in-process. Edits of these models have no pins; their outputs are
    checked daemon against in-process instead."""
    prefix, variant = item.key.split("/", 1)
    model_text = item.model.read_text()
    probe = work / "service"
    shutil.rmtree(probe, ignore_errors=True)
    probe.mkdir()
    (probe / "model.mdl").write_text(model_text)
    tops = export_tops(probe / "model.mdl", probe / "xml")
    xml = [(f"xml/top{i}", str(probe / "xml" / f"top{i}.xml"))
           for i in range(len(tops))]
    sessions = daemon_sessions(probe, model_text, tops, xml, pins, prefix,
                               [[0, 2]], variant)
    player = Player(sessions[0], random.Random(f"probe/{prefix}"))
    player.keep_outputs = True
    daemon = Daemon(probe)
    try:
        warm_up(daemon, [player], tally)
        run_sessions(daemon, [player], tally, 0.0, 0, max_rounds=2)
    finally:
        daemon.stop()
    summary, executes = in_process_replay(probe, [player], tally)
    return service_layers([player], summary, executes, tally)


def run_bbw_cold(seed: int, seconds: float, trace: bool, pins: dict) -> Result:
    def setup():
        work = fresh_work("bbw_cold")
        index = random.Random(f"bbw_cold/{seed}").randrange(len(RATE_SCALES))
        model = scaled_model(work, "bbw.mdl", ["bbw"], index)
        return work, ColdInput(f"bbw/scale{index}", model, ["--jobs", "1"])

    (work, item), setup_s = timed_setup(setup)
    return run_cold([item], item, work, setup_s, seconds, trace, pins)


def run_lanes(seed: int, seconds: float, trace: bool, pins: dict) -> Result:
    def setup():
        # Every model, each with its own seeded rate scale, in seeded order.
        work = fresh_work("lanes_cutsets")
        rng = random.Random(f"lanes_cutsets/{seed}")
        models = []
        for key, args in LANE_MODELS:
            index = rng.randrange(len(RATE_SCALES))
            models.append((key, index,
                           scaled_model(work, f"{key}.mdl", args, index)))
        rng.shuffle(models)
        return work, [ColdInput(f"lanes/{key}/scale{index}", model,
                                lane_args(key, engine))
                      for key, index, model in models
                      for engine in LANE_ENGINES]

    (work, inputs), setup_s = timed_setup(setup)
    # The service probe runs on the larger 3-lane model.
    probe = next(item for item in inputs if "/c3s50/" in item.key)
    return run_cold(inputs, probe, work, setup_s, seconds, trace, pins)


def run_daemon(seed: int, seconds: float, trace: bool, pins: dict) -> Result:
    tally = Tally()
    state: dict = {}

    def setup():
        if "daemon" in state:
            state.pop("daemon").stop()
        work = fresh_work("daemon_edit_loop")
        base = write_model(work, "base.mdl", ["bbw"])
        base_text = base.read_text()
        tops = export_tops(base, work / "xml")
        xml = [(f"xml/top{i}", str(work / "xml" / f"top{i}.xml"))
               for i in range(len(tops))]
        xml.append(("xml/event_tree", str(EVENT_TREE)))
        variant_ids = [[k for k in range(EDIT_VARIANTS)
                        if k % DAEMON_CONNECTIONS == c]
                       for c in range(DAEMON_CONNECTIONS)]
        sessions = daemon_sessions(work, base_text, tops, xml, pins, "daemon",
                                   variant_ids, "base")
        players = [Player(session, random.Random(
            f"daemon_edit_loop/{seed}/c{session.conn}"))
            for session in sessions]
        for player in players:
            player.keep_outputs = trace
        # The event tree comes early in every session.
        for player in players:
            entry = next(x for x in player.xml if x[0] == "xml/event_tree")
            player.xml.remove(entry)
            player.xml.insert(player.rng.randrange(2), entry)
        daemon = Daemon(work)
        state["daemon"] = daemon
        warm_up(daemon, players, tally)
        return work, daemon, players

    try:
        # A traced run reports no setup_s, so it sets up once.
        (work, daemon, players), setup_s = timed_setup(
            setup, 1 if trace else DAEMON_SETUP_REPEATS)
        cpu_start = daemon.cpu_s()
        wall = run_sessions(daemon, players, tally, seconds, MIN_REQUESTS, None)
        cpu = daemon.cpu_s() - cpu_start
        rss_kb = daemon.peak_rss_kb()
    finally:
        if "daemon" in state:
            state["daemon"].stop()
    samples = [ms for player in players for _, ms in player.samples]
    rounds = [w for player in players for w in player.round_walls]
    by_class: dict[str, int] = {}
    for player in players:
        for cls, _ in player.samples:
            by_class[cls] = by_class.get(cls, 0) + 1
    info = {"requests": len(samples), "rounds": len(rounds),
            "timed_s": wall, "per_class": by_class}
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "pass_s.p50": median(rounds),
            "cpu_s.per_pass": cpu / len(rounds),
            "peak_rss_mb": rss_kb / 1024.0,
            "latency_ms.p90": p90(samples),
        }
        tally.record(len(samples) >= MIN_REQUESTS, "too few requests")
        return Result(tally, metrics, info)

    # Traced: the same requests in-process, plus the pipeline on the base.
    summary, executes = in_process_replay(work, players, tally)
    service, cone = service_layers(players, summary, executes, tally)
    base = work / "c0" / "base.mdl"
    op = run_op([str(binary("ftsynth")), "analyse", str(base), "--jobs", "1"],
                work / "base.out")
    tally.record(op_ok(op, pins.get(f"bbw/scale{RATE_SCALES.index(1.0)}")),
                 "base analyse")
    top, stats = traced_pipeline(base, ["--jobs", "1"], work / "base.json")
    tally.record(top.exit_code == 0 and top.output == op.output,
                 "traced daemon base output differs from the CLI")
    layers, uncovered = pipeline_layers([stats], [top.wall_s], [op.wall_s])
    layers["analysis.cone_hit_ratio"] = cone
    return Result(tally, layers | service, info | {"uncovered": uncovered})


WORKLOADS = {
    "bbw_cold": run_bbw_cold,
    "lanes_cutsets": run_lanes,
    "daemon_edit_loop": run_daemon,
}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# --------------------------------------------------------------------------
# Pins


def make_pins() -> dict:
    """Digests of the cold CLI's output for every input any seed can make."""
    pins: dict = {}
    work = fresh_work("pins")
    ftsynth = str(binary("ftsynth"))

    def cli(args: list[str], name: str) -> bytes:
        op = run_op([ftsynth] + args + ["--jobs", "4"], work / name)
        if op.exit_code != 0:
            raise BenchError(f"pinning run failed: {args}")
        return op.output

    def pin_analyse(prefix: str, model: Path, args: list[str]) -> None:
        output = cli(["analyse", str(model)] + args, "analyse.out")
        pins[prefix] = digest(output)
        for top, body in split_sections(output):
            pins[f"{prefix}/analyse/{top}"] = digest(body)

    for index in range(len(RATE_SCALES)):
        pin_analyse(f"bbw/scale{index}",
                    scaled_model(work, "bbw.mdl", ["bbw"], index), [])
        for key, args in LANE_MODELS:
            pin_analyse(f"lanes/{key}/scale{index}",
                        scaled_model(work, f"{key}.mdl", args, index),
                        lane_args(key, "micsup")[2:])
        log(f"pinned bbw and lanes at rate scale {RATE_SCALES[index]}")
    base = write_model(work, "base.mdl", ["bbw"])
    base_text = base.read_text()
    variants = [("base", base_text)] + [
        (f"e{k}", edit_variant(base_text, k)) for k in range(EDIT_VARIANTS)]
    for name, text in variants:
        model = work / "variant.mdl"
        model.write_text(text)
        for top, body in split_sections(cli(["analyse", str(model)], "v.out")):
            pins[f"daemon/{name}/analyse/{top}"] = digest(body)
        for command in ("fmea", "report"):
            pins[f"daemon/{name}/{command}"] = digest(
                cli([command, str(model)], f"v.{command}"))
        log(f"pinned daemon variant {name}")
    tops = export_tops(base, work / "xml")
    for i in range(len(tops)):
        pins[f"daemon/xml/top{i}"] = digest(
            cli(["analyse", str(work / "xml" / f"top{i}.xml")], "x.out"))
    pins["daemon/xml/event_tree"] = digest(
        cli(["analyse", str(EVENT_TREE)], "et.out"))
    shutil.rmtree(work, ignore_errors=True)
    return pins


# --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute perfbench/pins.json and exit")
    args = parser.parse_args()
    try:
        cache = build()
        if args.pin:
            PINS.write_text(json.dumps(make_pins(), indent=0, sort_keys=True)
                            + "\n")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        pins = json.loads(PINS.read_text())
        host = host_context(cache)
        result = WORKLOADS[args.workload](args.seed, args.seconds,
                                          bool(args.trace), pins)
        units = declared_metrics(bool(args.trace))
        if set(units) != set(result.metrics):
            raise BenchError("measured metrics differ from BENCHMARK.json: "
                             f"{sorted(set(units) ^ set(result.metrics))}")
    except BenchError as error:
        log(f"perfbench: {error}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in result.tally.problems:
        log(f"perfbench: FAILED {problem}")
    print(json.dumps({"host": host, "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "info": result.info}))
    print(json.dumps({
        "correct": result.tally.failed == 0,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
