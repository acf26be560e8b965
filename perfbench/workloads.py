"""The benchmark's workloads: short sessions of randbc CLI commands.

Each workload is a list of argument vectors (without --out).  The workload
seed is appended as --seed to every command.  `profile="tiny"` shrinks every
size for the self-test; it keeps the same commands and checks.
"""

QPAT_MU = "qpat.mu=1+0.5*exp(-20*((x-0.4)**2+(y-0.6)**2))"

SIZES = {
    "full": {"n_mc": 65, "n_dict": 193, "n_img": 257, "K": 33, "K_var": 7,
             "M_jac": 2000, "N_jac": "1,2,4,8,16,32", "M_aug": 50, "N_aug": "1,2,4,8",
             "M_var": 100000, "M_tail": 100000},
    "tiny": {"n_mc": 17, "n_dict": 25, "n_img": 65, "K": 9, "K_var": 7,
             "M_jac": 50, "N_jac": "1,2,4", "M_aug": 50, "N_aug": "1,2",
             "M_var": 2000, "M_tail": 1000},
}

NAMES = ("mc-curve", "dictionary", "imaging")


def commands(workload: str, seed: int, profile: str = "full") -> list[list[str]]:
    z = SIZES[profile]
    s = ["--seed", str(seed)]

    def cmd(name, *pairs, threads=None):
        argv = [name] + s
        if threads is not None:
            argv += ["--threads", str(threads)]
        for pair in pairs:
            argv += ["--set", pair]
        return argv

    if workload == "mc-curve":
        n, K = f"grid.n={z['n_mc']}", f"bc.K={z['K']}"
        return [
            cmd("constraint-experiment", n, K, "zeta=jacobian", f"N_list={z['N_jac']}",
                f"M={z['M_jac']}", threads=2),
            cmd("constraint-experiment", n, K, "zeta=augmented", f"N_list={z['N_aug']}",
                f"M={z['M_aug']}", threads=2),
            cmd("variance-check", n, f"bc.K={z['K_var']}", "zeta=jacobian",
                f"M={z['M_var']}", threads=2),
            cmd("tail-check", n, K, "bc.family=rademacher", f"M={z['M_tail']}", threads=2),
        ]
    if workload == "dictionary":
        return [cmd("runge", f"grid.n={z['n_dict']}", f"bc.K={z['K']}")]
    if workload == "imaging":
        n, K = f"grid.n={z['n_img']}", f"bc.K={z['K']}"
        return [
            cmd("solve", n, K, "coeff.q=-5"),
            cmd("qpat", n, K, "N=4", "qpat.bc=random", QPAT_MU),
            cmd("conductivity", n, K),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(NAMES)}")
