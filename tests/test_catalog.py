"""Unit tests for the schema catalog."""

import datetime

import pytest

from repro.catalog import (
    Attribute,
    Catalog,
    DataType,
    Relation,
    SchemaError,
    TypeError_,
    coerce,
    infer_type,
    normalize,
)


class TestTypes:
    def test_coerce_null_always_allowed(self):
        for data_type in DataType:
            assert coerce(None, data_type) is None

    def test_coerce_integer(self):
        assert coerce(5, DataType.INTEGER) == 5

    def test_coerce_integer_rejects_bool(self):
        with pytest.raises(TypeError_):
            coerce(True, DataType.INTEGER)

    def test_coerce_integer_rejects_float(self):
        with pytest.raises(TypeError_):
            coerce(1.5, DataType.INTEGER)

    def test_coerce_float_widens_int(self):
        value = coerce(3, DataType.FLOAT)
        assert value == 3.0 and isinstance(value, float)

    def test_coerce_text(self):
        assert coerce("abc", DataType.TEXT) == "abc"

    def test_coerce_text_rejects_number(self):
        with pytest.raises(TypeError_):
            coerce(42, DataType.TEXT)

    def test_coerce_date_from_iso_string(self):
        assert coerce("2014-06-22", DataType.DATE) == datetime.date(2014, 6, 22)

    def test_coerce_date_rejects_garbage(self):
        with pytest.raises(TypeError_):
            coerce("not-a-date", DataType.DATE)

    def test_coerce_boolean(self):
        assert coerce(True, DataType.BOOLEAN) is True

    def test_infer_type(self):
        assert infer_type(1) is DataType.INTEGER
        assert infer_type(1.0) is DataType.FLOAT
        assert infer_type("x") is DataType.TEXT
        assert infer_type(False) is DataType.BOOLEAN
        assert infer_type(datetime.date.today()) is DataType.DATE

    def test_is_numeric(self):
        assert DataType.INTEGER.is_numeric
        assert DataType.FLOAT.is_numeric
        assert not DataType.TEXT.is_numeric


class TestRelation:
    def test_attributes_in_declaration_order(self):
        relation = Relation(
            "t", [Attribute("b"), Attribute("a"), Attribute("c")]
        )
        assert relation.attribute_names == ("b", "a", "c")

    def test_attribute_tuples_built_once(self):
        relation = Relation("t", [Attribute("b"), Attribute("a")])
        assert relation.attributes is relation.attributes
        assert relation.attribute_names is relation.attribute_names
        assert [a.name for a in relation.attributes] == ["b", "a"]

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Relation("t", [Attribute("a"), Attribute("A")])

    def test_attribute_lookup_case_insensitive(self):
        relation = Relation("t", [Attribute("Name")])
        assert relation.attribute("NAME").name == "Name"
        assert relation.has_attribute("name")

    def test_unknown_attribute_raises(self):
        relation = Relation("t", [Attribute("a")])
        with pytest.raises(SchemaError):
            relation.attribute("missing")

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            Relation("t", [Attribute("a")], primary_key=["b"])

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Relation("", [Attribute("a")])


class TestCatalog:
    def make(self) -> Catalog:
        catalog = Catalog("test")
        catalog.create_relation(
            "person",
            [("person_id", DataType.INTEGER), ("name", DataType.TEXT)],
            primary_key=["person_id"],
        )
        catalog.create_relation(
            "movie",
            [("movie_id", DataType.INTEGER), ("title", DataType.TEXT)],
            primary_key=["movie_id"],
        )
        catalog.create_relation(
            "actor",
            [("person_id", DataType.INTEGER), ("movie_id", DataType.INTEGER)],
        )
        return catalog

    def test_duplicate_relation_rejected(self):
        catalog = self.make()
        with pytest.raises(SchemaError):
            catalog.create_relation("PERSON", [("x", DataType.TEXT)])

    def test_relation_lookup_case_insensitive(self):
        catalog = self.make()
        assert catalog.relation("Person").name == "person"
        assert "MOVIE" in catalog

    def test_fk_defaults_to_target_primary_key(self):
        catalog = self.make()
        fk = catalog.add_foreign_key("actor", "person_id", "person")
        assert fk.target_attribute == "person_id"

    def test_fk_requires_single_column_pk_when_implicit(self):
        catalog = self.make()
        catalog.create_relation("nopk", [("a", DataType.INTEGER)])
        catalog.create_relation("src", [("a", DataType.INTEGER)])
        with pytest.raises(SchemaError):
            catalog.add_foreign_key("src", "a", "nopk")

    def test_duplicate_fk_rejected(self):
        catalog = self.make()
        catalog.add_foreign_key("actor", "person_id", "person")
        with pytest.raises(SchemaError):
            catalog.add_foreign_key("actor", "person_id", "person")

    def test_neighbors_are_symmetric(self):
        catalog = self.make()
        catalog.add_foreign_key("actor", "person_id", "person")
        catalog.add_foreign_key("actor", "movie_id", "movie")
        actor_neighbors = {r.name for r in catalog.neighbors("actor")}
        assert actor_neighbors == {"person", "movie"}
        assert {r.name for r in catalog.neighbors("person")} == {"actor"}

    def test_edges_collapse_parallel_fks(self):
        catalog = self.make()
        catalog.add_foreign_key("actor", "person_id", "person")
        catalog.add_foreign_key("actor", "movie_id", "movie")
        assert len(catalog.edges()) == 2

    def test_foreign_keys_between(self):
        catalog = self.make()
        catalog.add_foreign_key("actor", "person_id", "person")
        catalog.add_foreign_key("actor", "movie_id", "movie")
        between = catalog.foreign_keys_between("person", "actor")
        assert len(between) == 1
        assert between[0].source_relation == "actor"

    def test_validate_ok(self):
        catalog = self.make()
        catalog.add_foreign_key("actor", "person_id", "person")
        catalog.validate()

    def test_unknown_relation_raises(self):
        catalog = self.make()
        with pytest.raises(SchemaError):
            catalog.relation("ghost")

    def test_normalize(self):
        assert normalize("FooBar") == "foobar"

    def test_iteration_and_len(self):
        catalog = self.make()
        assert len(catalog) == 3
        assert {r.name for r in catalog} == {"person", "movie", "actor"}
