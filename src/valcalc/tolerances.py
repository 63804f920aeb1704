"""Named numeric tolerances shared by the float code paths.

Each constant names a threshold of one geometric or numeric test.  None of
them is an accuracy target: every normal-cycle cell is integrated exactly, so
float results carry only rounding error.  The Monte Carlo weights of box/box,
box/polytope and plate pairs are closed forms with no threshold at all (a
polytope's plane shadow counts a hull edge when every other point lies
strictly on one side of it, which can miss an edge only where three points
of the shadow are collinear, a set of rotations of measure zero), and ball
pairs score the exact hit |y| <= r: a slack would only move samples within it
of a sphere, a set of measure zero.
"""

# a normal cone is an orthant when its generators' Gram matrix is the
# identity, and an arc times an orthant when it is the identity but for one
# pair, to within this
CELL_TOL = 1e-12

# rows given as orthonormal (box rotations, polygon and Klain frames, the
# icosahedron's rotation) may deviate from it by this much
ORTHONORMAL_TOL = 1e-9

# singular values and ranks of edge sets (simplex vertices, complements)
RANK_TOL = 1e-10

# a polygon turns left at every vertex by more than this cross product
CONVEXITY_TOL = 1e-12

# |det[face frame | cone generators]| below this is a degenerate piece
DEGENERATE_PIECE_TOL = 1e-12

# GJK separation (``bodies.intersects_batch``): a sample is decided once the
# simplex's distance to the origin, or the gap between it and the support
# lower bound, falls to this times 1 + |d0| + the two support radii.  The
# closest face is chosen by the signs of barycentric weights alone, with no
# slack on a sign and no least gain in distance.  Only the Monte Carlo pairs
# with no closed-form translation integral use it: a ball against a simplex
# or a polygon, and two polytopes neither of which is a box.
GJK_TOL = 1e-12

# vectors shorter than this count as zero (imaginary directions)
ZERO_NORM_TOL = 1e-12

# two float icosahedron directions are the same within this per coordinate
DIRECTION_MATCH_TOL = 1e-9

# Monte Carlo gives up above this share of samples that GJK leaves undecided
# (only the pairs scored by GJK can have any)
MC_INDETERMINATE_RATE = 1e-4
