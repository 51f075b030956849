"""Seeded, vectorized input generators (run before any timing starts).

``repro.workloads.FlowGenerator`` draws every record with several scalar
numpy calls (~144 us/record), which would dominate a benchmark run.  The
generators here draw whole windows at once from the same distributions:

- flows: Zipf(s=1.1) source/destination popularity over ``n_hosts``
  hosts, Pareto(1.3) bytes (``40 + pareto * 1000``, capped at 10 MB),
  destination ports uniform over ``FlowGenerator.COMMON_PORTS``, and a
  few scanners that send one 40-byte flow to a uniformly random
  destination on every ``n // n_attack``-th record;
- latencies: lognormal request latencies per labelled histogram, with a
  location shift injected into one label for the last windows.

The program under test only ever sees the materialized records; the
exact references for the output checks are built from the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMMON_PORTS = np.array([80, 443, 53, 22, 25, 123, 8080], dtype=np.int64)


def host_name(idx: int) -> str:
    """The fake IPv4 ``FlowGenerator`` derives from a host index."""
    return f"10.{(idx >> 16) & 0xFF}.{(idx >> 8) & 0xFF}.{idx & 0xFF}"


@dataclass
class FlowWindow:
    """One window of flow records, as arrays plus the records fed."""

    src: np.ndarray  # host index per record
    dst: np.ndarray
    port: np.ndarray
    nbytes: np.ndarray
    pairs: list  # (src host, dst host) string tuples -> per-source HLL
    port_bytes: list  # (dst_port, bytes) tuples -> per-port KLL


def flow_windows(
    seed: int,
    n_windows: int,
    records_per_window: int,
    n_hosts: int = 5000,
    skew: float = 1.1,
    pareto_shape: float = 1.3,
    attack_sources: int = 3,
    attack_fraction: float = 0.02,
) -> tuple[list[FlowWindow], list[str], np.ndarray]:
    """Flow windows, the host-name table and the scanner host indices."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.power(np.arange(1, n_hosts + 1, dtype=np.float64), skew)
    probs = weights / weights.sum()
    hosts = [host_name(i) for i in range(n_hosts)]
    scanners = rng.choice(n_hosts, size=attack_sources, replace=False)
    n = records_per_window
    n_attack = int(n * attack_fraction)
    attack = np.arange(n) % max(1, n // max(1, n_attack)) == 0
    windows = []
    for _ in range(n_windows):
        src = rng.choice(n_hosts, size=n, p=probs)
        dst = rng.choice(n_hosts, size=n, p=probs)
        nbytes = np.minimum(40 + rng.pareto(pareto_shape, n) * 1000, 10_000_000)
        nbytes = nbytes.astype(np.int64)
        port = rng.choice(COMMON_PORTS, size=n)
        k = int(attack.sum())
        src[attack] = rng.choice(scanners, size=k)
        dst[attack] = rng.integers(n_hosts, size=k)
        nbytes[attack] = 40
        host_src = [hosts[i] for i in src.tolist()]
        host_dst = [hosts[i] for i in dst.tolist()]
        windows.append(
            FlowWindow(
                src=src,
                dst=dst,
                port=port,
                nbytes=nbytes,
                pairs=list(zip(host_src, host_dst)),
                port_bytes=list(zip(port.tolist(), nbytes.tolist())),
            )
        )
    return windows, hosts, scanners


def latency_windows(
    seed: int,
    n_windows: int,
    n_labels: int,
    obs_per_label: int,
    shift_label: int,
    shift_from: int,
    mu: float = -4.0,
    sigma: float = 0.5,
    shift_sigmas: float = 1.0,
) -> np.ndarray:
    """Latencies in seconds, shaped ``(n_windows, n_labels, obs_per_label)``.

    Every label draws ``lognormal(mu, sigma)``; from window
    ``shift_from`` on, label ``shift_label`` draws with its log-mean
    raised by ``shift_sigmas`` standard deviations (a real drift).
    """
    rng = np.random.default_rng(seed)
    draws = rng.lognormal(mu, sigma, size=(n_windows, n_labels, obs_per_label))
    draws[shift_from:, shift_label, :] *= np.exp(shift_sigmas * sigma)
    return draws
