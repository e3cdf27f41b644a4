"""Reference implementations the test suites pin production code against.

Each module holds a kernel that production no longer runs, kept as a
plain function over the public summary so the parity suites (and the
benchmarks that time production against it) can compare answers bit
for bit.  Import as ``oracles.<module>``: pytest puts ``tests/`` on
``sys.path``; benchmarks append it themselves.
"""
