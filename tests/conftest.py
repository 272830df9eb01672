import random

import numpy as np
import pytest

import randqpe as rq

_ACCEPTANCE_LINES = []


def record_criterion(cid: str, ok: bool, detail: str = ""):
    _ACCEPTANCE_LINES.append((cid, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for cid, ok, detail in sorted(_ACCEPTANCE_LINES):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {cid}: {status}  {detail}")


def random_hamiltonian(width: int, n_terms: int, seed: int,
                       allow_negative: bool = True, idle: int = 0) -> rq.Hamiltonian:
    """Reproducible random Pauli Hamiltonian with distinct non-identity words.

    The first `idle` qubits carry I in every term, so each eigenvalue is
    (at least) 2^idle-fold degenerate.
    """
    r = random.Random(seed)
    lines, seen = [], set()
    while len(lines) < n_terms:
        word = "I" * idle + "".join(r.choice("IXYZ") for _ in range(width - idle))
        if word == "I" * width or word in seen:
            continue
        seen.add(word)
        w = r.uniform(0.2, 1.0)
        if allow_negative and r.random() < 0.5:
            w = -w
        lines.append(f"{w:.8f} {word}")
    return rq.parse_hamiltonian("\n".join(lines))


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240817))
