"""Settings shared by the suite's property tests."""

from hypothesis import settings

# Every run draws the same examples, keeps none between runs and puts no time
# limit on one example; each test sets only its example count.
settings.register_profile("sepscope", deadline=None, derandomize=True, database=None)
settings.load_profile("sepscope")
