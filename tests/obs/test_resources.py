"""Resource gauges: the stdlib-only RSS/CPU/GC sampler."""

from repro.obs import OBS
from repro.obs.resources import publish_gauges, sample


class TestSample:
    def test_reading_has_the_three_fields(self):
        reading = sample()
        assert set(reading) == {
            "rss_peak", "cpu_seconds", "gc_collections"
        }

    def test_values_are_sane(self):
        reading = sample()
        # A live CPython process holds at least a few MiB and has spent
        # some CPU time; GC generations have collected at least once.
        assert reading["rss_peak"] > 1 << 20
        assert reading["cpu_seconds"] > 0.0
        assert reading["gc_collections"] >= 0

    def test_monotone_fields_never_regress(self):
        first = sample()
        list(range(10000))  # do a little work
        second = sample()
        assert second["rss_peak"] >= first["rss_peak"]
        assert second["cpu_seconds"] >= first["cpu_seconds"]
        assert second["gc_collections"] >= first["gc_collections"]

    def test_reading_is_json_safe(self):
        import json

        json.dumps(sample())


class TestPublishGauges:
    def test_publishes_process_gauges(self, tracing):
        reading = publish_gauges(OBS.metrics)
        assert OBS.metrics.gauge_value("process.rss_peak") == float(
            reading["rss_peak"]
        )
        assert OBS.metrics.gauge_value("process.cpu_seconds") > 0.0

    def test_source_label_keeps_workers_apart(self, tracing):
        publish_gauges(OBS.metrics, source="worker-1")
        publish_gauges(OBS.metrics, source="worker-2")
        labeled = OBS.metrics.labeled_gauges("process.rss_peak")
        assert set(labeled) == {"worker-1", "worker-2"}
        # Unlabeled slot untouched by labeled publishes.
        assert OBS.metrics.gauge_value("process.rss_peak") is None
