"""Weyl group arithmetic on matrices: the oracle for the group's tables.

``weyl`` reads every element and everything derived from it off the
group's integer tables.  This module computes the same data the way it
is defined, on the matrix of an element's action in the simple root
basis (column j is the image of the j-th simple root): products, the
inverse found by a root search, the length and inversion set from the
signs of root images, the ShortLex word found by peeling off the
smallest left descent, the matrices of the simple reflections, of a word
and of the reflection through a root, and the image of rho, which keys
the tables.  Nothing here reads the tables.

It also keeps the matrix routes that ``weyl`` and ``rootsystem`` replaced
by walks along the word: the weight action through the inverse matrix and
the coroots, the root sequence through matrix products, and the inverse
Cartan matrix by Gaussian elimination over the rationals.
"""

from fractions import Fraction


def product(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def act(mat, coords):
    return tuple(sum(row[k] * coords[k] for k in range(len(coords))) for row in mat)


def simple_matrix(rs, i):
    """Matrix of s_i, 1-based: s_i(a_j) = a_j - cartan[i][j] a_i."""
    n = rs.rank
    return tuple(
        tuple((r == j) - (rs.cartan[i - 1][j] if r == i - 1 else 0) for j in range(n))
        for r in range(n)
    )


def reflection_matrix(rs, beta):
    """Matrix of t_beta: column j is a_j - <a_j, beta^vee> beta."""
    n = rs.rank
    c = rs.coroot(beta.coords)
    shift = [sum(c[i] * rs.cartan[i][j] for i in range(n)) for j in range(n)]
    return tuple(
        tuple((r == j) - shift[j] * beta.coords[r] for j in range(n)) for r in range(n)
    )


def inverse(rs, mat):
    """Column i of the inverse is the positive root sent to +-a_i, times that sign."""
    columns = {}
    for beta in rs.positive_roots:
        image = act(mat, beta.coords)
        if sum(map(abs, image)) == 1:
            sign = sum(image)
            columns[image.index(sign)] = tuple(sign * c for c in beta.coords)
    if len(columns) != rs.rank:
        raise ValueError("some simple root is not the image of a root")
    return tuple(zip(*(columns[i] for i in range(rs.rank))))


def length(rs, mat):
    """Number of positive roots sent to negative roots."""
    return sum(1 for beta in rs.positive_roots if sum(act(mat, beta.coords)) < 0)


def inversions(rs, mat):
    """Positive roots sent negative by the inverse, in root order."""
    inv = inverse(rs, mat)
    return tuple(beta for beta in rs.positive_roots if sum(act(inv, beta.coords)) < 0)


def word(rs, mat):
    """ShortLex word: repeatedly split off the smallest left descent.

    The left descents of w are the right descents of w^{-1}, i.e. the i
    with w^{-1}(a_i) negative.
    """
    letters = []
    rest = inverse(rs, mat)
    while descents := [i for i in range(rs.rank) if sum(row[i] for row in rest) < 0]:
        letters.append(descents[0] + 1)
        rest = product(rest, simple_matrix(rs, descents[0] + 1))
    return tuple(letters)


def word_matrix(rs, word):
    """Product of the simple reflection matrices along a word."""
    n = rs.rank
    mat = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in word:
        mat = product(mat, simple_matrix(rs, i))
    return mat


def rho_image(rs, mat):
    """w(rho) in fundamental weight coordinates.

    Coordinate k is <w(rho), a_k^vee> = <rho, (w^{-1} a_k)^vee>, the sum of
    the coroot coordinates of column k of the inverse: rho pairs to 1 with
    every simple coroot.
    """
    return tuple(sum(rs.coroot(column)) for column in zip(*inverse(rs, mat)))


def invert(a):
    """Invert a square rational matrix by Gauss-Jordan elimination."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = 1 / work[col][col]
        work[col] = [x * inv_p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def weight_action(rs, mat, coords):
    """Coordinate i of w(lam) is <lam, (w^{-1} a_i)^vee>: the pairing of lam
    with the coroot of column i of the inverse matrix."""
    return tuple(
        sum(c * x for c, x in zip(rs.coroot(column), coords, strict=True))
        for column in zip(*inverse(rs, mat))
    )


def root_sequence(rs, mat, letters, split):
    """The j-th root is w applied to the image of the j-th letter's simple
    root under the product of the preceding letters, negated on the first
    ``split`` steps."""
    n = rs.rank
    prefix = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    betas = []
    for j, letter in enumerate(letters):
        alpha = tuple(int(k == letter - 1) for k in range(n))
        image = act(mat, act(prefix, alpha))
        betas.append(tuple(-c for c in image) if j < split else image)
        prefix = product(prefix, simple_matrix(rs, letter))
    return betas
