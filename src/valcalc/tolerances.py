"""Named numeric tolerances shared by the float code paths.

Each constant names a threshold of one geometric or numeric test.  None of
them is an accuracy target, and none picks a rule: a normal-cycle cell is a
point, an arc or a geodesic triangle by its generator count alone (a cone of
four or more generators raises), each integrated exactly, so float results
carry only rounding error.  No Monte Carlo sample is scored against any of
them: every score is exact, with no iteration.  The rotation pairs' weights
are closed forms in the rotation: mixed volumes over the bodies' faces, a
ball's being a cube's whose faces weigh powers of its radius, in which a
pair of 2-faces counts when one fixed x lies strictly inside their cones'
sum (a tie needs q in a set of measure zero).  Their |forms| that agree to
rounding are summed as one (FORM_MERGE_TOL), which moves a weight by
rounding alone.  A ball against a ball or a
box integrates rounded-3-box sections in closed form: none tests a point
against a boundary.
"""

# rows given as orthonormal (box rotations, polygon and Klain frames) may
# deviate from it by this much
ORTHONORMAL_TOL = 1e-9

# singular values and ranks of edge sets (simplex vertices, complements)
RANK_TOL = 1e-10

# a polygon turns left at every vertex by more than this cross product
CONVEXITY_TOL = 1e-12

# |det[face frame | cone generators]| below this is a degenerate piece
DEGENERATE_PIECE_TOL = 1e-12

# vectors shorter than this count as zero (imaginary directions)
ZERO_NORM_TOL = 1e-12

# a rotation weight's |forms| whose coefficients lie within this much of the
# largest coefficient of each other are one form: rounding alone tells apart
# two boxes' complementary minors, which agree for an orthogonal matrix, by
# up to about 1.2e-15 of it
FORM_MERGE_TOL = 1e-14
