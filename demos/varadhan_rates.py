"""Distance-asymptotics residuals and their convergence-rate regimes.

On the ball the residual eps log u + sqrt(p') d_Gamma decays like
eps log(1/eps) for finite p and like eps for p = infinity; the exterior
p = infinity residual vanishes identically.  For rough boundaries the rate
is governed by psi(eps), tabulated here for three moduli of continuity.
"""

from resolvent_asym.experiments import GeometrySpec, ModulusSpec, \
    SweepConfig, run_psi_rate_table, run_varadhan_sweep
from resolvent_asym.params import INFINITY


def p_label(p):
    return "inf" if p == INFINITY else f"{p:g}"


def main():
    cfg = SweepConfig(n_values=(2,), p_values=(2.0, INFINITY),
                      q_values=(2.0,), eps_start=0.1, eps_factor=0.1,
                      eps_count=4, geometry=GeometrySpec("ball", 1.0, 0.5))
    rows, fits = run_varadhan_sweep(cfg)

    print("ball residuals at the center (r=0), N=2")
    print("eps".rjust(10) + "p=2".rjust(14) + "p=inf".rjust(14))
    for eps in cfg.eps_sequence:
        vals = {row["p"]: row["residual"] for row in rows
                if row["eps"] == eps and row["r"] == 0.0}
        print(f"{eps:10.0e}{vals[2.0]:14.6e}{vals[INFINITY]:14.6e}")

    print("\nrate fits (log residual = log coefficient + log model):")
    for (n, p), fit in fits.items():
        print(f"  N={n} p={p_label(p):>4}: model={fit.model.value:8s} "
              f"coefficient={fit.coefficient:.4g} "
              f"r_squared={fit.r_squared:.6f} matched={fit.matched}")
    print("  (the p=inf coefficient approaches log 2 = 0.6931...)")

    print("\npsi(eps) for three boundary moduli "
          "(eps log psi -> 0 marks the uniform-rate regime):")
    specs = (("linear, slope 2", ModulusSpec("linear", r=1.0, slope=2.0)),
             ("sqrt", ModulusSpec("sqrt", r=1.0)),
             ("1/log(1/s)", ModulusSpec("log_reciprocal", r=0.5)))
    eps_seq = (0.05, 0.02, 0.01)
    for label, spec in specs:
        table, converges = run_psi_rate_table(spec, eps_seq)
        cells = "  ".join(f"{row['eps_log_psi']:10.4f}" for row in table)
        print(f"  {label:16s} eps log psi: {cells}   converges={converges}")


if __name__ == "__main__":
    main()
