"""A desk-scale phase-transition table: recovery rate as a function of the
measurement count, for several sparsity levels.

Run:  python3 demos/phase_transition.py
The CLI produces the same table:
  sparsekit phase --algo omp --d 64 --m 8:56:8 --s 2,4,8 --trials 40 --seed 1
"""

from sparsekit import bench

grid = bench.ExperimentGrid(
    algorithm="omp", d=64,
    m_values=(8, 16, 24, 32, 40, 48, 56),
    s_values=(2, 4, 8),
    trials=40, seed=1,
)
cells = bench.run_phase_transition(grid)

print("recovery rate by (s, m), 40 trials per cell:\n")
header = "s\\m " + "".join(f"{m:>6}" for m in grid.m_values)
print(header)
for s in grid.s_values:
    rates = [c["success_rate"] for c in cells if c["s"] == s]
    print(f"{s:<4}" + "".join(f"{r:6.2f}" for r in rates))

rows = bench.run_trend(grid, level=0.99)
print("\nlargest s recovered in 99% of trials, per m:")
print({r["m"]: r["max_s"] for r in rows})
