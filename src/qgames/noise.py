"""Re-exports only, until the benchmark stops importing this module
(ROADMAP item 3): `advantage_threshold` and `ThresholdResult` live in
`qgames.search`, and `NoiseKind` and `NoiseSpec` in `qgames.qcore`."""
from .qcore import NoiseKind, NoiseSpec
from .search import ThresholdResult, advantage_threshold
