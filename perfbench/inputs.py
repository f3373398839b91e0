"""Seeded inputs and the job list of each workload.

    python3 perfbench/inputs.py WORKLOAD SEED DIR

Writes the workload's input files to DIR in the formats the README
documents (dense-state text files, ``word,value,sigma`` correlator
CSVs) and prints its job list as JSON, each job with the check and the
reference values ``workloads.CHECKS`` needs.  The same seed gives the
same inputs.  This runs in its own process so that the client, which
spawns every job, never holds these arrays (see ``workloads.py``).
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from workloads import WORKLOADS, multipartite_bound


def job(name: str, args: list[str], check: str, kind: str = "cli", **params) -> dict:
    return {"name": name, "kind": kind, "args": args, "check": check, "params": params}


def _write(path: str, lines) -> None:
    """Write and flush to disk, so writeback does not overlap timed jobs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
        fh.flush()
        os.fsync(fh.fileno())


def dense_state(rng: np.random.Generator, n: int, path: str) -> float:
    """A GHZ projector mixed with a Ginibre state, written as n and then
    2^n rows of "re,im" pairs; returns F = 2^(n-1) (rho_00 + rho_last,last)."""
    dim = 1 << n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mixed = g @ g.conj().T
    ghz = np.zeros(dim, dtype=complex)
    ghz[0] = ghz[-1] = 2**-0.5
    p = rng.uniform(0.0, 0.2)
    rho = p * np.outer(ghz, ghz) + (1 - p) * mixed / np.trace(mixed).real
    rho = (rho + rho.conj().T) / 2  # exactly Hermitian
    rho /= np.trace(rho).real
    fmt = " ".join(["%r,%r"] * dim) + "\n"
    pairs = np.stack((rho.real, rho.imag), axis=-1).reshape(dim, 2 * dim).tolist()
    _write(path, [f"{n}\n", *(fmt % tuple(row) for row in pairs)])
    return float(2.0 ** (n - 1) * (rho[0, 0].real + rho[-1, -1].real))


def _write_csv(path: str, rng: np.random.Generator, words: list[str],
               values: np.ndarray, sigmas: np.ndarray) -> None:
    """Shuffled rows; about half the words carry an explicit "-" sign with
    the value negated, which leaves each letter word's value unchanged."""
    flip = rng.random(len(words)) < 0.5
    lines = ["word,value,sigma\n"]
    for i in rng.permutation(len(words)).tolist():
        sign, value = ("-", -values[i]) if flip[i] else ("+", values[i])
        lines.append(f"{sign}{words[i]},{float(value)!r},{float(sigmas[i])!r}\n")
    _write(path, lines)


def product_correlators(rng: np.random.Generator, n: int, path: str) -> tuple[float, float]:
    """Noiseless <Z_S> = prod_{j in S} r_j over the 2^(n-1) even-weight
    Z-strings (the multipartite family) of a seeded z-polarised product
    state; returns F = (prod(1 + r) + prod(1 - r)) / 2 and sigma."""
    r = rng.choice((-1.0, 1.0), n) * rng.uniform(0.6, 1.0, n)
    masks = np.arange(1 << n)
    masks = masks[np.bitwise_count(masks) % 2 == 0]
    values = np.ones(len(masks))
    for j in range(n):
        values *= np.where((masks >> j) & 1, r[j], 1.0)
    words = ["".join("Z" if (m >> j) & 1 else "I" for j in range(n)) for m in masks.tolist()]
    sigmas = rng.uniform(1e-4, 1e-3, len(masks))
    _write_csv(path, rng, words, values, sigmas)
    lhs = (math.prod(1 + x for x in r) + math.prod(1 - x for x in r)) / 2
    return float(lhs), math.sqrt(float(np.sum(sigmas**2)))


def werner_correlators(rng: np.random.Generator, path: str) -> tuple[float, float]:
    """<XX> = <YY> = lambda, <ZZ> = -lambda; returns lhs = 1 + 3 lambda and sigma."""
    lam = float(rng.uniform(0.0, 1.0))
    sigmas = rng.uniform(1e-3, 2e-2, 3)
    _write_csv(path, rng, ["XX", "YY", "ZZ"], np.array([lam, lam, -lam]), sigmas)
    return 1 + 3 * lam, math.sqrt(float(np.sum(sigmas**2)))


def build(workload: str, seed: int, work_dir: str) -> list[dict]:
    """The workload's job list, with its inputs written to ``work_dir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sweep":
        # Fixed-size enumerations: the seed does not enter.
        return [
            job("bound10", ["bound", "--n", "10", "--bruteforce", "--workers", "1"], "bound", n=10),
            job("bound12", ["bound", "--n", "12", "--bruteforce", "--workers", "2"], "bound", n=12),
            job("hvkn12", ["12"], "hvkn", kind="hvkn", n=12),
        ]
    if workload == "evaluate":
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        beta = complex(math.sin(theta) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        ghz = f"ghz:n=24,alpha={math.cos(theta)!r},beta={beta!r}"
        signs = rng.choice((1.0, -1.0), 24)
        pattern = "".join("+" if s > 0 else "-" for s in signs)
        product_lhs = float((np.prod(1 + signs) + np.prod(1 - signs)) / 2)
        lam = float(rng.uniform(0.0, 1.0))
        return [
            job("scan", ["scan", "--from", "2", "--to", "22", "--format", "json"], "scan",
                n_min=2, n_max=22),
            # F = 2^(n-1) (|alpha|^2 + |beta|^2) for every GHZ superposition.
            job("ghz24", ["violate", "--state", ghz], "multi_state", n=24, lhs=2.0**23),
            job("product24", ["violate", "--state", f"product:{pattern}"], "multi_state",
                n=24, lhs=product_lhs),
            job("werner", ["violate", "--state", f"werner:lambda={lam!r}"], "werner", lam=lam),
            job("group8", ["group", "--n", "8"], "group", n=8),
            *(job(f"verify-{s}", ["verify", "--suite", s], "suite", suite=s)
              for s in ("identities", "hvkn", "certificates")),
        ]
    if workload == "ingest":
        jobs = []
        for n in (8, 10):
            path = os.path.join(work_dir, f"dense{n}.txt")
            lhs = dense_state(rng, n, path)
            jobs.append(job(f"dense{n}", ["violate", "--state", f"dense:@{path}"], "multi_state",
                            n=n, lhs=lhs))
        for n in (14, 16):
            path = os.path.join(work_dir, f"product{n}.csv")
            lhs, sigma = product_correlators(rng, n, path)
            jobs.append(job(f"check{n}", ["check", "--file", path, "--kind", "multi"], "correlators",
                            family="multipartite", n=n, lhs=lhs, sigma=sigma,
                            bound=multipartite_bound(n)))
        path = os.path.join(work_dir, "werner.csv")
        lhs, sigma = werner_correlators(rng, path)
        jobs.append(job("check2", ["check", "--file", path, "--kind", "two"], "correlators",
                        family="two-partite", n=2, lhs=lhs, sigma=sigma, bound=2.0))
        jobs.append(job("verify-fine", ["verify", "--suite", "fine"], "suite", suite="fine"))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


if __name__ == "__main__":
    workload, seed, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    print(json.dumps(build(workload, seed, work_dir)))
