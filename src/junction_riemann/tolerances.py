"""Every numerical threshold of the package, defined once, with the reason for it.

All are absolute (densities and fluxes are of order one) except the relative
``CFL_SLACK``. The public names stay importable where they were first defined, such
as ``flux.BOUNDARY_EPS``; only ``check_E1(tol)`` and ``classify_2x2(eq_tol)`` take a
threshold as an argument, which the CLI's ``--tolerance`` sets; both reject a
threshold that is not finite and >= 0.
"""

# -- slack: input this far outside its range is rounding error, and is clamped --------
#: a density this far outside [0, 1] is clipped into it.
DENSITY_SLACK = 1e-12
#: a flux this far outside [0, f_max], a demand/supply cap, or an LP or projection range.
FLUX_SLACK = 1e-9
#: a cap this far below 0 counts as 0, and a flux total may exceed its caps' sum by this.
CAP_SLACK = 1e-12
#: the priority weights of a side, and each matrix column, sum to 1 within this.
SUM_TO_ONE_SLACK = 1e-9

# -- verdicts on traces and solver outputs --------------------------------------------
#: |sum of incoming fluxes - sum of outgoing fluxes| below this counts as balanced.
BALANCE_TOL = 1e-10
#: a flux this close to f(rho0) keeps the datum as its trace; this close to f_max, sigma.
KEEP_TOL = 1e-11
#: slack for membership of half-open trace-set boundaries.
BOUNDARY_EPS = 1e-12
#: traces within this window of sigma count as good in both directions.
SIGMA_TIE = 1e-12
#: flux comparisons closer than this are treated as ties in the 2x2 case split.
FLUX_TIE = 1e-11
#: a solver reproduces a state (fixed point, idempotence) when no trace moves further.
FIXED_POINT_TOL = 1e-10

# -- entropy conditions ---------------------------------------------------------------
#: minima above this threshold count as satisfying the entropy inequalities.
ENTROPY_TOL = 1e-10
#: equality window for the 2x2 table comparisons.
CLASSIFY_EQ_TOL = 1e-10

# -- linear algebra and the flux-maximization LP --------------------------------------
#: rank cutoff of the uniqueness-class test for distribution matrices.
RANK_TOL = 1e-10
#: a singular value below this counts as zero in the face rank test.
SINGULAR_TOL = 1e-12
#: a second LP optimum further than this from the first makes the maximizer not unique.
LP_MATCH_TOL = 1e-9
#: a simplex reduced cost this small is zero: a pivot adds rounding of about 1e-16,
#: and the zero-cost variables span the optimal face that the uniqueness run explores.
LP_COST_TOL = 1e-12
#: a tableau entry this small is no pivot: dividing by it would magnify rounding by
#: 1e12 or more, and its basic variable moves at most this much per unit step.
LP_PIVOT_TOL = 1e-12

# -- faces of the flux polytope -------------------------------------------------------
#: a flux this close to its cap is pinned by the face; also the pinning residual bound.
FACE_TOL = 1e-9
#: sampled face points keep free arcs this far below their caps (times max(1, cap)).
FACE_MARGIN = 1e-7
#: the face objective is constant when its sampled values spread by at most this.
FACE_SPREAD_TOL = 1e-9

# -- time stepping --------------------------------------------------------------------
#: a requested dt may exceed the CFL bound by this relative amount.
CFL_SLACK = 1e-12
#: a run ends, and a snapshot is taken, once t is this close to the requested time.
TIME_TOL = 1e-12

# -- the ``reproduce`` comparisons with the paper's values ----------------------------
#: pinned fluxes, fixed points and (E2) values.
REPRODUCE_TOL = 1e-10
#: the through-flow counterexample's F(k = 1/4), pinned more tightly.
REPRODUCE_TIGHT_TOL = 1e-12
