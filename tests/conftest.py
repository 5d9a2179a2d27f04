from hypothesis import settings

# Selected with --hypothesis-profile=ci: the same examples on every run,
# and no per-example deadline, so property tests cannot flake on a slow
# runner.
settings.register_profile("ci", derandomize=True, deadline=None)
