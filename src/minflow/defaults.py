"""The default scales of the library's bounded claims, each stated once.

The library functions take these as keyword defaults and the command
line offers them as option defaults.  This module imports nothing, so
the command line can build its parser without loading the layers that
a subcommand does not run.
"""

# codes: length of the test word an endomorphism is certified on
CHECK_LEN = 4096

# pairs: horizon H and window half-width L of a pair verdict, and the
# address level of a distal certificate
HORIZON = 1 << 16
PAIR_RESOLUTION = 64
CERTIFICATE_LEVEL = 12

# joins: window half-width L and orbit steps T of a joint language, and
# the largest radius the dichotomy fits a local rule at
JOIN_RESOLUTION = 32
STEPS = 1 << 16
RADIUS_BUDGET = 4

# sr: shifts |k| <= MAX_SHIFT tried against the dichotomy, the radius of
# the realized group, and the level of the odometer witness
MAX_SHIFT = 4
SR_RADIUS = 2
SR_LEVELS = 10

# censuses: address level and window half-width of a sampled census, and
# how many censuses the sr report of an almost automorphic system draws
CENSUS_LEVELS = 14
CENSUS_RESOLUTION = 16
SR_CENSUS_SAMPLES = 5

SAMPLE_SEED = 20190609    # the seed of every sample a report draws
