"""Named numeric tolerances shared by the float code paths.

Each constant names a threshold of one geometric or numeric test.  None of
them is an accuracy target, and none picks a rule: a normal-cycle cell is a
point, an arc or a geodesic triangle by its generator count alone (a cone of
four or more generators raises), each integrated exactly, so float results
carry only rounding error.  No Monte Carlo sample is scored against any of
them: every score is exact, with no iteration.  The weights of pairs without
a ball are closed forms in the rotation (a shadow's edge counts when every
other vertex lies strictly on one side of it, a pair of 2-faces when one
fixed x lies strictly inside their cones' sum: a tie needs q in a set of
measure zero).  Ball
pairs integrate rounded-3-box sections or weigh a hull's shadows, in closed
form: none tests a point against a boundary.
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
