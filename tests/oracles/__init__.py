"""Reference implementations the test suites pin production code against.

Each module holds kernels that production no longer runs, kept as
plain functions over the public API so the parity and equivalence
suites (and the benchmarks that time production against them) can
compare results: the q-digest range-sum kernels bit for bit, the
historical scalar samplers by their RNG stream and distribution.
Import as ``oracles.<module>``: pytest puts ``tests/`` on
``sys.path``; benchmarks append it themselves.
"""
