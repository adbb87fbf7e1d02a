"""Tests for repro.data.geojson round-tripping."""

from __future__ import annotations

import json

import pytest

from repro.data import (
    collection_to_feature_collection,
    dump_geojson,
    load_geojson,
    synthetic_census,
)
from repro.exceptions import DatasetError


@pytest.fixture(scope="module")
def census():
    return synthetic_census(25, seed=3)


class TestSerialize:
    def test_feature_collection_shape(self, census):
        document = collection_to_feature_collection(census)
        assert document["type"] == "FeatureCollection"
        assert len(document["features"]) == 25
        feature = document["features"][0]
        assert feature["geometry"]["type"] == "Polygon"
        assert "TOTALPOP" in feature["properties"]
        assert "area_id" in feature["properties"]

    def test_rings_are_closed(self, census):
        document = collection_to_feature_collection(census)
        ring = document["features"][0]["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]

    def test_region_labels_embedded(self, census):
        labels = {area.area_id: area.area_id % 3 for area in census}
        document = collection_to_feature_collection(census, labels)
        regions = {f["properties"]["region"] for f in document["features"]}
        assert regions == {0, 1, 2}

    def test_missing_polygon_raises(self, grid3):
        with pytest.raises(DatasetError, match="no polygon"):
            collection_to_feature_collection(grid3)


class TestRoundTrip:
    def test_file_round_trip(self, census, tmp_path):
        path = tmp_path / "census.geojson"
        dump_geojson(census, path)
        loaded = load_geojson(
            path,
            attribute_names=["TOTALPOP", "EMPLOYED", "POP16UP", "HOUSEHOLDS"],
            dissimilarity_attribute="HOUSEHOLDS",
            id_property="area_id",
        )
        assert len(loaded) == len(census)
        for area in census:
            assert loaded.attribute(
                area.area_id, "TOTALPOP"
            ) == pytest.approx(area.attributes["TOTALPOP"])

    def test_adjacency_recovered_from_geometry(self, census, tmp_path):
        path = tmp_path / "census.geojson"
        dump_geojson(census, path)
        loaded = load_geojson(
            path,
            attribute_names=["TOTALPOP", "HOUSEHOLDS"],
            dissimilarity_attribute="HOUSEHOLDS",
            id_property="area_id",
        )
        # rook adjacency derived from polygons should match the source
        for area in census:
            assert loaded.neighbors(area.area_id) == census.neighbors(
                area.area_id
            )

    def test_queen_contiguity_option(self, census, tmp_path):
        path = tmp_path / "census.geojson"
        dump_geojson(census, path)
        rook = load_geojson(
            path, ["HOUSEHOLDS"], "HOUSEHOLDS", contiguity="rook"
        )
        queen = load_geojson(
            path, ["HOUSEHOLDS"], "HOUSEHOLDS", contiguity="queen"
        )
        rook_edges = sum(len(rook.neighbors(i)) for i in rook.ids)
        queen_edges = sum(len(queen.neighbors(i)) for i in queen.ids)
        assert queen_edges >= rook_edges


class TestLoaderValidation:
    def _document(self):
        return {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [
                            [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
                        ],
                    },
                    "properties": {"POP": 10.0},
                }
            ],
        }

    def test_load_from_mapping(self):
        collection = load_geojson(self._document(), ["POP"], "POP")
        assert len(collection) == 1
        assert collection.attribute(0, "POP") == 10.0

    def test_wrong_top_level_type_raises(self):
        with pytest.raises(DatasetError, match="FeatureCollection"):
            load_geojson({"type": "Feature"}, ["POP"], "POP")

    def test_empty_features_raise(self):
        with pytest.raises(DatasetError, match="no features"):
            load_geojson(
                {"type": "FeatureCollection", "features": []}, ["POP"], "POP"
            )

    def test_non_polygon_geometry_raises(self):
        document = self._document()
        document["features"][0]["geometry"]["type"] = "MultiPolygon"
        with pytest.raises(DatasetError, match="only Polygon"):
            load_geojson(document, ["POP"], "POP")

    def test_missing_property_raises(self):
        with pytest.raises(DatasetError, match="missing property"):
            load_geojson(self._document(), ["POP", "INCOME"], "POP")

    def test_dissimilarity_must_be_among_attributes(self):
        with pytest.raises(DatasetError, match="must be"):
            load_geojson(self._document(), ["POP"], "INCOME")

    def test_unknown_contiguity_raises(self):
        with pytest.raises(DatasetError, match="unknown contiguity"):
            load_geojson(self._document(), ["POP"], "POP", contiguity="bishop")


class TestLoudAttributeValidation:
    """Regression: a NaN (or junk) property must fail the load loudly —
    naming the feature, the property and the preflight lint code —
    instead of propagating into aggregate comparisons where NaN
    silently compares false."""

    def _document(self, census, mutate):
        document = collection_to_feature_collection(census)
        mutate(document["features"])
        return document

    NAMES = ["TOTALPOP", "EMPLOYED", "POP16UP", "HOUSEHOLDS"]

    def _load(self, document):
        return load_geojson(
            document,
            attribute_names=self.NAMES,
            dissimilarity_attribute="HOUSEHOLDS",
            id_property="area_id",
        )

    def test_nan_property_rejected(self, census):
        def poison(features):
            features[3]["properties"]["TOTALPOP"] = float("nan")

        with pytest.raises(DatasetError, match="non-finite-attribute"):
            self._load(self._document(census, poison))

    def test_inf_property_rejected(self, census):
        def poison(features):
            features[0]["properties"]["EMPLOYED"] = float("inf")

        with pytest.raises(DatasetError, match="non-finite-attribute"):
            self._load(self._document(census, poison))

    def test_non_numeric_property_rejected(self, census):
        def poison(features):
            features[1]["properties"]["POP16UP"] = "many"

        with pytest.raises(DatasetError, match="non-numeric-attribute"):
            self._load(self._document(census, poison))

    def test_null_property_rejected(self, census):
        def poison(features):
            features[2]["properties"]["TOTALPOP"] = None

        with pytest.raises(DatasetError, match="non-numeric-attribute"):
            self._load(self._document(census, poison))

    def test_missing_property_names_lint_code(self, census):
        def poison(features):
            del features[4]["properties"]["HOUSEHOLDS"]

        with pytest.raises(DatasetError, match="missing-attribute"):
            self._load(self._document(census, poison))

    def test_error_names_the_feature(self, census):
        def poison(features):
            features[7]["properties"]["TOTALPOP"] = float("nan")

        with pytest.raises(DatasetError, match="feature 7"):
            self._load(self._document(census, poison))

    def test_no_backend_ever_sees_a_nan(self, census, kernel):
        """The scalar loops and the vector kernels are protected by the
        same load-time rejection: the poisoned document never becomes
        a collection, so the kernel dispatch cannot re-open the NaN
        hole."""
        from repro.fact import FaCT, FaCTConfig

        document = collection_to_feature_collection(census)
        document["features"][5]["properties"]["TOTALPOP"] = float("nan")
        with pytest.raises(DatasetError, match="non-finite-attribute"):
            collection = self._load(document)
            FaCT(FaCTConfig(rng_seed=3)).solve(
                collection, None
            )
