"""Benchmark workloads: seeded inputs, the timed call, the check.

BENCHMARK.json runs ground-energy, resource-curve and cdf-wide.
lcu-stream is run by hand (README.md says why).

Every task is one in-process ``randqpe.cli.run([...])`` call on inputs
generated here from the workload seed (Hamiltonian files and threshold
lists).  ``lcu-stream`` also reads the emitted stream back and runs one
Hadamard test per unitary inside the timed region, because that is the
only path that reaches ``lcu.parse_lcu`` and ``backend.apply_unitary``.

Checks avoid the code path they verify wherever an independent reference
is cheap.  Dense Hamiltonians, ground energies, exact evolutions, LCU
weights and the exact ACDF are rebuilt here with numpy and scipy.
``cdf-wide`` takes only its state from ``prepare_state`` and its filter and
sample count from ``build_plan``.  README.md says why each workload exists.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import expm

import randqpe.backend
import randqpe.cli
from randqpe import estimator, lcu, pauli

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass
class Task:
    """One generated input: CLI arguments plus what the check needs."""

    index: int
    argv: list
    ref: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one task produced: exit code, stdout text, extra outputs."""

    code: int
    stdout: str
    stderr: str
    extra: str = ""

    def payload(self) -> bytes:
        """Bytes compared between the untraced and the traced pass."""
        return (self.stdout + "\n" + self.extra).encode()


def random_terms(rnd: random.Random, width: int, n_terms: int):
    """Distinct non-identity Pauli words with coefficients of random sign."""
    terms, seen = [], set()
    while len(terms) < n_terms:
        word = "".join(rnd.choice("IXYZ") for _ in range(width))
        if word == "I" * width or word in seen:
            continue
        seen.add(word)
        w = rnd.uniform(0.2, 1.0)
        if rnd.random() < 0.5:
            w = -w
        terms.append((float(f"{w:.8f}"), word))
    return terms


def write_hamiltonian(terms, path: Path) -> float:
    """Write '<coefficient> <word>' lines; return lambda = sum |coefficient|."""
    path.write_text("".join(f"{c:.8f} {w}\n" for c, w in terms))
    return sum(abs(c) for c, _ in terms)


def dense_hamiltonian(terms) -> np.ndarray:
    """Independent dense matrix; the leftmost letter acts on the lowest bit."""
    width = len(terms[0][1])
    m = np.zeros((1 << width, 1 << width), dtype=complex)
    for c, word in terms:
        op = np.ones((1, 1), dtype=complex)
        for letter in word:
            op = np.kron(_PAULI[letter], op)
        m += c * op
    return m


def pauli_table(terms):
    """Sparse Hamiltonian as (c_l * phase_l, perm_l) with (P_l v)[k] = phase_l[k] v[perm_l[k]].

    P|i> = i^{#Y} (-1)^{popcount(i & z)} |i ^ x>, with x marking X/Y letters and
    z marking Z/Y letters.
    """
    width = len(terms[0][1])
    idx = np.arange(1 << width)
    table = []
    for c, word in terms:
        x = sum(1 << q for q, letter in enumerate(word) if letter in "XY")
        z = sum(1 << q for q, letter in enumerate(word) if letter in "YZ")
        perm = idx ^ x
        parity = np.zeros_like(idx)
        for q in range(width):
            if z >> q & 1:
                parity ^= (perm >> q) & 1
        table.append((c * (1j ** word.count("Y")) * (1 - 2 * parity), perm))
    return table


def acdf_reference(terms, amps, tau: float, odd_abs, xs) -> np.ndarray:
    """<psi| F(x - tau H) |psi> for the odd filter F, without diagonalising H.

    F(y) = 1/2 + sum_j F_j (e^{ijy} - e^{-ijy}) with F_j = -i odd_abs[(j-1)/2],
    so the value needs a_j = <psi| e^{-ij tau H} |psi> for odd j <= 2d+1; the
    powers of e^{-i tau H} are applied by their Taylor series.
    """
    table = pauli_table(terms)
    ks = 2 * np.arange(len(odd_abs)) + 1
    a = []
    phi = amps
    for j in range(1, int(ks[-1]) + 1):
        term, acc, n = phi, phi, 0
        while np.linalg.norm(term) > 1e-18:
            n += 1
            term = sum(cp * term[perm] for cp, perm in table) * (-1j * tau / n)
            acc = acc + term
        phi = acc
        if j % 2:
            a.append(np.vdot(amps, phi))
    a = np.array(a)
    e = np.exp(1j * np.outer(xs, ks))
    return (0.5 + (e * a - e.conj() * a.conj()) @ (-1j * np.asarray(odd_abs))).real


def segment_weight(x: float, M: int) -> float:
    """Sum over even n <= M of |x|^n / n! * sqrt(1 + (x / (n + 1))^2)."""
    return math.fsum(abs(x) ** n / math.factorial(n) * math.sqrt(1.0 + (x / (n + 1)) ** 2)
                     for n in range(0, M + 1, 2))


class Workload:
    """A task is one CLI call, run in-process with its output captured."""

    def run(self, task: Task) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = randqpe.cli.run(task.argv)
        return Outcome(int(code), out.getvalue(), err.getvalue())


class GroundEnergy(Workload):
    """Criterion-06 family: 4 qubits, 8 terms, groundmix 0.6, Delta = 0.05 lambda."""

    name = "ground-energy"

    def make_task(self, seed: int, index: int, workdir: Path) -> Task:
        rnd = random.Random(f"{self.name}:{seed}:{index}")
        terms = random_terms(rnd, 4, 8)
        path = workdir / f"{self.name}-{index}.ham"
        lam = write_hamiltonian(terms, path)
        delta_abs = 0.05 * lam
        argv = ["ground-energy", "--ham", str(path), "--state", "groundmix:0.6",
                f"--Delta={delta_abs!r}", "--eta", "0.6", "--xi", "0.1",
                "--seed", str(rnd.getrandbits(63))]
        return Task(index, argv, {"terms": terms, "Delta": delta_abs})

    def check(self, task: Task, out: Outcome) -> bool:
        est = json.loads(out.stdout)["estimate"]
        e0 = float(np.linalg.eigvalsh(dense_hamiltonian(task.ref["terms"]))[0])
        return abs(est - e0) <= task.ref["Delta"]


class ResourceCurve(Workload):
    """Heavy-molecule curve at eps 0.2, n_grid 10; lambda within 1% of 1511.

    A different lambda per task keeps tasks from sharing a filter; the spread
    is kept small because the work grows with lambda.
    """

    name = "resource-curve"
    ngrid = 10

    def make_task(self, seed: int, index: int, workdir: Path) -> Task:
        rnd = random.Random(f"{self.name}:{seed}:{index}")
        lam = 1511.0 * (1.0 + rnd.uniform(-0.01, 0.01))
        argv = ["resource-curve", f"--lambda={lam!r}", "--Delta", "0.0016",
                "--eta", "1", "--eps", "0.2", "--b", "1", "--ngrid", str(self.ngrid)]
        return Task(index, argv, {"lambda": lam})

    def check(self, task: Task, out: Outcome) -> bool:
        # criterion 09: optimum 2 c_gate in [1e11, 1e13], c_sample monotone in g
        lines = out.stdout.splitlines()
        skipped = sum(1 for ln in lines if ln.startswith("# skipped infeasible"))
        rows = [ln.split(",") for ln in lines
                if ln and not ln.startswith("#") and not ln.startswith("eps,")]
        opt = [r for r in rows if r[6] == "1"]
        curve = sorted((float(r[2]), float(r[4])) for r in rows if r[6] == "0")
        if len(opt) != 1 or len(curve) + skipped != self.ngrid or not curve:
            return False
        if not 1e11 <= 2.0 * float(opt[0][3]) <= 1e13:
            return False
        cs = [c for _, c in curve]
        return all(b - a <= 1e-9 * a for a, b in zip(cs, cs[1:]))


class CdfWide(Workload):
    """10 qubits, 40 terms, groundmix 0.6, Delta = 0.25 lambda, 300 thresholds."""

    name = "cdf-wide"
    n_x = 300
    eta, eps, theta = 0.6, 0.2, 0.05
    n_se = 5.0

    def make_task(self, seed: int, index: int, workdir: Path) -> Task:
        rnd = random.Random(f"{self.name}:{seed}:{index}")
        terms = random_terms(rnd, 10, 40)
        path = workdir / f"{self.name}-{index}.ham"
        lam = write_hamiltonian(terms, path)
        delta_abs = 0.25 * lam
        # certified window |x| <= (pi - tau Delta) / 2, tau = pi / (2 lambda + Delta)
        x_max = 0.5 * (math.pi - math.pi * delta_abs / (2.0 * lam + delta_abs))
        xs = [float(v) for v in np.linspace(-0.99 * x_max, 0.99 * x_max, self.n_x)]
        argv = ["estimate-cdf", "--ham", str(path), "--state", "groundmix:0.6",
                f"--Delta={delta_abs!r}", "--eta", repr(self.eta), "--eps", repr(self.eps),
                "--theta", repr(self.theta), "--x=" + ",".join(repr(x) for x in xs),
                "--seed", str(rnd.getrandbits(63))]
        return Task(index, argv, {"path": path, "terms": terms, "Delta": delta_abs, "xs": xs})

    def check(self, task: Task, out: Outcome) -> bool:
        rows = [ln.split(",") for ln in out.stdout.splitlines()
                if ln and not ln.startswith("#") and ln != "x,re,im"]
        xs = [float(r[0]) for r in rows]
        if xs != task.ref["xs"]:
            return False
        h = pauli.parse_hamiltonian(task.ref["path"].read_text())
        plan = estimator.build_plan(h, task.ref["Delta"], self.eta, self.eps, self.theta)
        state = randqpe.backend.prepare_state("groundmix:0.6", h)
        exact = acdf_reference(task.ref["terms"], state.amplitudes, plan.tau,
                               plan.fourier.odd_abs, np.array(xs))
        est = np.array([float(r[1]) for r in rows])
        # Every record adds at most weight_A to Re z, so one estimate has a
        # standard error of at most A / sqrt(c_sample).  eta/2 - eps is about
        # 3.5 of those: it holds per query with probability 1 - theta, but the
        # 300 queries share one sample set, so requiring it at all of them
        # fails a correct program in a fraction of a percent of tasks.
        tol = self.n_se * plan.complexities.weight_A / math.sqrt(plan.complexities.c_sample)
        return bool(np.all(np.abs(est - exact) <= tol))


class LcuStream(Workload):
    """sample-lcu on 3-6 qubits, t in {-2, 1.3, -3}, r = ceil(2 t^2), M = 8.

    The stream is parsed back and each unitary drives one Hadamard test on a
    seeded random state; both steps are part of the timed task.
    """

    name = "lcu-stream"
    count = 2000
    M = 8
    times = (-2.0, 1.3, -3.0)
    # the mean of `count` outcomes m (|m|^2 = 2) has total variance <= 2 / count;
    # five standard errors keep a false alarm below 1e-10 per task
    n_se = 5.0

    def make_task(self, seed: int, index: int, workdir: Path) -> Task:
        rnd = random.Random(f"{self.name}:{seed}:{index}")
        # sizes cycle with the task index, so every seed runs the same mix
        t = self.times[index % len(self.times)]
        width = 3 + (index // len(self.times)) % 4
        terms = random_terms(rnd, width, 6)
        path = workdir / f"{self.name}-{index}.ham"
        lam = write_hamiltonian(terms, path)
        r = math.ceil(2.0 * t * t)
        nrng = np.random.Generator(np.random.PCG64(rnd.getrandbits(63)))
        amps = nrng.standard_normal(1 << width) + 1j * nrng.standard_normal(1 << width)
        amps /= np.linalg.norm(amps)
        argv = ["sample-lcu", "--ham", str(path), f"--t={t!r}", "--r", str(r),
                "--M", str(self.M), "--count", str(self.count),
                "--seed", str(rnd.getrandbits(63))]
        return Task(index, argv, {"terms": terms, "lam": lam, "t": t, "r": r,
                                  "width": width, "amps": amps,
                                  "hseed": rnd.getrandbits(63)})

    def run(self, task: Task) -> Outcome:
        out = super().run(task)
        if out.code != 0:
            return out
        state = randqpe.backend.StateVector(task.ref["amps"].copy(), task.ref["width"])
        rng = np.random.Generator(np.random.PCG64(task.ref["hseed"]))
        body = "".join(ln + "\n" for ln in out.stdout.splitlines() if not ln.startswith("#"))
        ms = [randqpe.backend.hadamard_sample(state, lcu.parse_lcu(chunk, task.ref["width"]), rng)
              for chunk in body.split("---\n")[:-1]]
        out.extra = ",".join(repr(m) for m in ms)
        return out

    def check(self, task: Task, out: Outcome) -> bool:
        t, r, k = task.ref["t"], task.ref["r"], self.count
        chunks = out.stdout.split("---\n")[:-1]
        if len(chunks) != k or any(c.count("ROT ") != r for c in chunks):
            return False
        ms = np.array([complex(v) for v in out.extra.split(",")])
        amps = task.ref["amps"]
        hn = dense_hamiltonian(task.ref["terms"]) / task.ref["lam"]
        z = complex(np.vdot(amps, expm(1j * t * hn) @ amps))
        x = t / r
        mu = segment_weight(x, self.M) ** r
        full = segment_weight(x, self.M + 160)
        bias = r * full ** (r - 1) * max(full - segment_weight(x, self.M), 0.0)
        return abs(mu * ms.mean() - z) <= self.n_se * mu * math.sqrt(2.0 / k) + bias


WORKLOADS = {w.name: w for w in (GroundEnergy(), ResourceCurve(), CdfWide(), LcuStream())}
