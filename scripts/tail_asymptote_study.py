#!/usr/bin/env python3
"""Chart where the power-law tail description of the regulator holds.

For the exponential-power model the compensated ratios

    tail_ratio(u) = P(eta > u) * u**(1/eps) / Gamma(1 + 1/eps)
    sum_ratio(u)  = sigma1(u)  * u**(1/eps) / Gamma(1 + 1/eps)

are plotted over a log grid of thresholds.  sum_ratio tends to 1 as u -> 0,
so the power law describes the first Bonferroni sum at small thresholds.
tail_ratio collapses to 0 as u grows: the exact tail is dominated by the
first term exp(-u * start**eps) and decays exponentially, so no window of
large u keeps the compensated tail near 1.  This is why the large-threshold
power-law check in the verification suite fails and is expected to.
"""

import argparse
from pathlib import Path

import numpy as np


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps", type=float, default=0.5)
    parser.add_argument("--u-min", type=float, default=0.05)
    parser.add_argument("--u-max", type=float, default=60.0)
    parser.add_argument("--points", type=int, default=40)
    parser.add_argument("--out", type=Path, default=Path("out"))
    args = parser.parse_args()

    from glsreg.persist import atomic_write_text
    from glsreg.simulate import asymptotic_tail_constant, bonferroni_sums, exact_eta_tail
    from glsreg.svg import line_plot_svg

    eps = args.eps
    c = asymptotic_tail_constant(eps)
    u_grid = np.geomspace(args.u_min, args.u_max, args.points)
    rows = []
    for u in u_grid:
        tail = exact_eta_tail(1.0, eps, float(u), abs_tol=1e-10)
        s1, _ = bonferroni_sums(eps, float(u), abs_tol=1e-10)
        comp = float(u) ** (1.0 / eps) / c
        rows.append((float(u), tail * comp, s1 * comp))

    args.out.mkdir(parents=True, exist_ok=True)
    lines = ["u,tail_ratio,sum_ratio"]
    lines.extend(f"{u!r},{rt!r},{rs!r}" for u, rt, rs in rows)
    atomic_write_text(args.out / f"tail_asymptote_eps{eps:g}.csv", "\n".join(lines) + "\n")
    atomic_write_text(
        args.out / f"tail_asymptote_eps{eps:g}.svg",
        line_plot_svg(
            [r[0] for r in rows],
            np.log10([r[1] for r in rows]).tolist(),  # a zero ratio gives -inf, which the plot skips
            title=f"compensated exact tail, eps={eps:g}",
            x_label="u",
            y_label="tail ratio (log10)",
        ),
    )

    print(f"eps={eps:g}: sum_ratio at u={u_grid[0]:.3g} is {rows[0][2]:.4f} (power law holds as u -> 0)")
    for u in (10.0, 50.0):
        ratio = exact_eta_tail(1.0, eps, u, abs_tol=1e-10) * u ** (1.0 / eps) / c
        print(f"eps={eps:g}: tail_ratio at u={u:g} is {ratio:.3e} (far from 1, moving away)")


if __name__ == "__main__":
    main()
