"""PHI workload-generation and MHI vitals tests."""

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.crypto.rng import HmacDrbg
from repro.ehr.mhi import (ALARM_THRESHOLDS, AnomalyKind, MhiWindow,
                           VitalSign, VitalsGenerator, detect_anomalies)
from repro.ehr.phi import PhiCollection, generate_workload
from repro.ehr.records import Category, make_phi_file
from repro.exceptions import ParameterError


@pytest.fixture()
def rng():
    return HmacDrbg(b"phi-mhi")


_VALID_WINDOW = VitalsGenerator(
    HmacDrbg(b"mhi-fuzz"), sample_interval_s=6 * 3600.0).generate_day(
        "2026-07-01").to_bytes()


@st.composite
def _mutated_window(draw):
    """A valid window encoding after a few byte edits, cuts and splices."""
    data = bytearray(_VALID_WINDOW)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "cut"]))
        byte = draw(st.one_of(st.sampled_from(b";|\n,.-e"),
                              st.integers(0, 255)))
        if edit == "replace" and at < len(data):
            data[at] = byte
        elif edit == "insert":
            data.insert(at, byte)
        elif edit == "delete" and at < len(data):
            del data[at]
        elif edit == "cut":
            del data[at:]
    return bytes(data)


class TestPhiCollection:
    def test_add_remove(self, rng):
        collection = PhiCollection()
        f = make_phi_file(rng, Category.XRAY, ["xray"], "note")
        collection.add(f, "sserver://h0")
        assert len(collection) == 1
        collection.remove(f.fid)
        assert len(collection) == 0

    def test_duplicate_rejected(self, rng):
        collection = PhiCollection()
        f = make_phi_file(rng, Category.XRAY, ["xray"], "note")
        collection.add(f, "s")
        with pytest.raises(ParameterError):
            collection.add(f, "s")

    def test_keyword_map_matches_index(self, rng):
        collection = generate_workload(rng, 20)
        km = collection.keyword_map()
        for kw, fids in km.items():
            assert collection.index.fids_for(kw) == fids

    def test_plaintext_map(self, rng):
        collection = generate_workload(rng, 5)
        pm = collection.plaintext_map()
        assert len(pm) == 5
        assert collection.total_plaintext_bytes() \
            == sum(len(v) for v in pm.values())


class TestWorkloadGeneration:
    def test_counts(self, rng):
        for n in (1, 10, 50):
            assert len(generate_workload(HmacDrbg(b"w%d" % n), n)) == n

    def test_deterministic(self):
        c1 = generate_workload(HmacDrbg(b"same"), 10)
        c2 = generate_workload(HmacDrbg(b"same"), 10)
        assert sorted(c1.files) == sorted(c2.files)

    def test_keywords_canonical(self, rng):
        from repro.ehr.dictionary import is_valid_syntax
        collection = generate_workload(rng, 30)
        for f in collection.files.values():
            assert all(is_valid_syntax(kw) for kw in f.keywords)

    def test_zero_files_rejected(self, rng):
        with pytest.raises(ParameterError):
            generate_workload(rng, 0)

    def test_categories_spread(self, rng):
        collection = generate_workload(rng, 30)
        categories = {f.category for f in collection.files.values()}
        assert len(categories) >= 5


class TestVitalsGenerator:
    def test_clean_day_no_alarms(self, rng):
        window = VitalsGenerator(rng).generate_day("2026-07-01")
        assert detect_anomalies(window) == []

    def test_each_anomaly_kind_detected(self):
        for i, kind in enumerate(AnomalyKind):
            gen = VitalsGenerator(HmacDrbg(b"vg%d" % i))
            window = gen.generate_day("2026-07-01",
                                      anomalies=[(30000.0, kind)])
            alarms = detect_anomalies(window)
            assert alarms, "anomaly %s not detected" % kind

    def test_sample_count(self, rng):
        gen = VitalsGenerator(rng, sample_interval_s=600.0)
        window = gen.generate_day("2026-07-01")
        expected_steps = int(86400 / 600)
        assert len(window.samples) == expected_steps * len(VitalSign)

    def test_bad_interval_rejected(self, rng):
        with pytest.raises(ParameterError):
            VitalsGenerator(rng, sample_interval_s=0)

    def test_searchable_horizon(self, rng):
        window = VitalsGenerator(rng).generate_day(
            "2026-12-30", searchable_horizon_days=5)
        assert window.searchable_days == [
            "2026-12-30", "2026-12-31", "2027-01-01", "2027-01-02",
            "2027-01-03"]

    def test_leap_year_rollover(self, rng):
        window = VitalsGenerator(rng).generate_day(
            "2024-02-28", searchable_horizon_days=3)
        assert window.searchable_days == ["2024-02-28", "2024-02-29",
                                          "2024-03-01"]

    def test_window_serialization(self, rng):
        window = VitalsGenerator(rng).generate_day(
            "2026-07-01", anomalies=[(1000.0, AnomalyKind.DESATURATION)])
        restored = MhiWindow.from_bytes(window.to_bytes())
        assert restored.day == window.day
        assert restored.searchable_days == window.searchable_days
        assert len(restored.samples) == len(window.samples)
        assert restored.samples[0].vital == window.samples[0].vital

    def test_bad_encoding_rejected(self):
        with pytest.raises(ParameterError):
            MhiWindow.from_bytes(b"not an MHI window")

    @seed(20261020)
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=120), _mutated_window()))
    def test_malformed_encodings_raise_parameter_error(self, data):
        """A window comes back from the S-server inside a role ciphertext
        anyone can make, so any bytes yield a window or ParameterError."""
        try:
            window = MhiWindow.from_bytes(data)
        except ParameterError:
            return
        assert isinstance(window, MhiWindow)

    def test_values_physiological(self, rng):
        """Baseline samples stay within broad physiological ranges."""
        window = VitalsGenerator(rng).generate_day("2026-07-01")
        hr = window.values_for(VitalSign.HEART_RATE)
        assert all(40 < v < 120 for v in hr)
        spo2 = window.values_for(VitalSign.SPO2)
        assert all(90 < v <= 100.5 for v in spo2)

    def test_thresholds_cover_all_vitals(self):
        assert set(ALARM_THRESHOLDS) == set(VitalSign)
