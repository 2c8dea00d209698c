"""Expectations that depend on the host the tests run on."""

from repro.libm.compiled import find_compiler

#: The tier the default registry answers member inputs with when no
#: table is present: the compiled C kernel where gcc is on ``PATH``, the
#: numpy vector tier where it is not.
POLY_TIER = "compiled" if find_compiler() else "vector"
