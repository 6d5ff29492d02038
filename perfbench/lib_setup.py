"""Set-up cost of the library workload: import plus first-call warm-up.

    python perfbench/lib_setup.py   # prints the seconds taken, in-process

`warm_up` makes the first call of every library question the
library-kernel workload asks, so lazy initialisation is paid here and
not inside the timed ops.
"""
import time


def warm_up(qg) -> None:
    pd, mode = qg.canonical_pd(), qg.EntanglerMode.DEFECT
    c, d, q = qg.canonical_gates(mode)
    qg.run_protocol(pd, 1.0, mode, q, d)
    qg.run_protocol_mixed(pd, 1.0, mode, qg.MixedQuantumStrategy([(0.5, c), (0.5, q)]),
                          qg.MixedQuantumStrategy.point_mass(d))
    qg.run_protocol_noisy(pd, 1.0, mode, q, q,
                          qg.NoiseSpec(kind=qg.NoiseKind.PER_QUBIT_DEPOLARIZING, p=0.1))
    qg.gamma_sweep(pd, mode, q, q, 2)
    qg.mixed_quantum_equilibrium(pd, 1.0, mode, [c, d, q], qg.SearchConfig())


if __name__ == "__main__":
    t0 = time.monotonic()
    import qgames

    warm_up(qgames)
    print(time.monotonic() - t0)
