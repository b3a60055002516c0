"""Settings shared by the suite's property tests."""

from hypothesis import Phase, settings

# Every run draws the same examples, keeps none between runs and puts no time
# limit on one example; each test sets only its example count.  The explain
# phase is left out: it only annotates a failure already found and shrunk,
# and on a slow property it can take minutes to do so.
settings.register_profile("sepscope", deadline=None, derandomize=True, database=None,
                          phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("sepscope")
