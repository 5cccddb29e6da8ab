"""The one table of numerical thresholds, read everywhere as ``tol.NAME``.

Each row bounds one quantity, named in its comment.  Two checks share a
row only when they bound the same quantity; an equal value alone does not
make them one.  This module imports nothing.
"""

# Operators and states.
HERMITIAN = 1e-9  # ||H - H^dag||_F of a matrix taken as Hermitian
PSD = 1e-9  # -(least eigenvalue) of a matrix taken as positive semidefinite
DROP = 1e-12  # eigenvalue over max(1, largest) that psd_cholesky sets to zero
RANK = 1e-8  # residual norm below which a vector counts as linearly dependent
GRAM = 1e-10  # entry gap of the Gram matrices an isometry maps between
ACTION = 1e-10  # ||U d - i||, how far a completed isometry may miss an image
UNITARY = 1e-10  # ||U^dag U - I||_F of a coupling
NORM = 1e-10  # | ||v|| - 1 | of a state vector
DENSITY = 1e-9  # |Tr - 1|, -(least eigenvalue) of a density matrix; |G_ii - 1|
PRIORS = 1e-12  # |sum(p) - 1| of a prior vector

# Measurements and sampling.
COMPLETE = 1e-9  # ||sum_x M_x - I||_F of a POVM; |row sum - 1| of a confusion
PROB = 1e-10  # how far a probability may leave [0, 1] before it is clamped
UNAMBIGUOUS = 1e-9  # Tr(M_x(j) rho_i), i != j: an identifying outcome misfiring
STD_ERROR = 1e-15  # |std_error - sqrt(p (1 - p) / n)| of a simulation result

# Builders.
PIPELINE = 1e-9  # |pipeline success - closed form| of a scheme
BOUNDARY = 1e-12  # slack of a closed-interval bound, each written so that NaN fails it
SNAP = 1e-12  # 1 - |c|^2 at or below which sqrt(1 - |c|^2) is taken as 0
OVERLAP = 1e-10  # residual of the rra and zero-aux overlap constraints
ORTHOGONAL = 1e-10  # |<psi0|psi1>| of zero-aux's two identifying vectors
ROUNDOFF = 8.0 * 2.0**-52  # overlap synthesis roundoff per unit of largest eigenvalue
ZERO_PROB = 1e-12  # a probability at or below which it counts as zero
EQUAL_PRIORS = 1e-12  # |p0 - p1| below which a decomposition takes p0 = p1
PART_TRACE = 1e-12  # |Tr - 1| of each part of a separable decomposition
DECOMPOSITION = 1e-10  # ||rho - reconstruction||_F of a separable decomposition

# Comparisons and grids.
VERDICT = 1e-12  # -margin of a true verdict; band of a compared probability
MARGIN = 1e-12  # |margin - (p_mixed - p_una_reference)| of a compared point
XU_TIE = 1e-12  # sqrt(p2) - sqrt(p1) below which the two largest priors tie
GUARD = 1e-5  # how far a guard-grid point may beat the family optimum
ROW_FLAT = 2.0**-48  # window-edge cost rise up to which a grid oracle row is searched whole
SCHUR = 1e-15  # x0 x1 - gamma^2 above which the grid oracle's floor is finite
CLASSICAL = 1e-9  # worst block normality or commutator norm, right classicality
SIMPLEX_STEP = 1e-9  # |n step - 1| for a prior step to divide 1 into n
GRID_STEPS = 1e-9  # shortfall of (max - min) / step from a whole count of steps
GRID_ROUNDOFF = 2.0**-50  # |round(v, 12) - v| per unit of |min| + k step, grid v
