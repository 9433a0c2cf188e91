"""Bundled finite-domain SMT solver speaking an SMT-LIB2 subset.

Nothing is re-exported here, so a client that imports `sexpr` does not
compile `engine` and `sat`.
"""
