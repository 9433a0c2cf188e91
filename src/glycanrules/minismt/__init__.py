"""Bundled finite-domain SMT solver speaking an SMT-LIB2 subset.

Nothing is re-exported here, so a client that imports `sexpr` does not
import `engine` and `sat`.  The client compiles them, without running them,
once per process on its first bundled launch (`backend._solver_code`).
"""
