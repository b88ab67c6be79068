import base64
import json
import math
import struct
import sys

import numpy as np
import pytest

from genderedlang.checkpoint import load_checkpoint, save_checkpoint
from genderedlang.errors import DataError
from genderedlang.model import TrainConfig, init_params

from conftest import v1_document, write_document

ARRAYS = ("m", "eta", "omega", "xi")


def random_params(toy_table, space, seed=0, n_sentiments=3):
    params = init_params(toy_table, space, n_sentiments=n_sentiments)
    rng = np.random.default_rng(seed)
    params.eta = rng.uniform(0, 2, params.eta.shape)
    params.eta[params.eta < 1.0] = 0.0  # sparse, like trained deviations
    params.omega = rng.normal(0, 1, params.omega.shape)
    params.xi = rng.normal(0, 1, params.xi.shape)
    return params


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, toy_table, space, tmp_path):
        for n_sentiments in (3, 1):
            params = random_params(toy_table, space, n_sentiments=n_sentiments)
            params.m[:3] = -0.0, 5e-324, sys.float_info.max
            params.eta[0, 0, :2] = -0.0, 5e-324
            params.omega[0, 0], params.xi[0] = -sys.float_info.max, -5e-324
            beta = 0.5 if n_sentiments == 3 else 0.0
            config = TrainConfig(alpha=1e-3, beta=beta, max_iterations=7)
            path = tmp_path / f"ckpt{n_sentiments}.json"
            save_checkpoint(path, params, space, config, toy_table.fingerprint(), "amod",
                            extra={"iterations": 42})
            loaded = load_checkpoint(path)
            assert loaded.params.vocab == params.vocab
            assert loaded.params.forms == params.forms
            for name in ARRAYS:
                array = getattr(loaded.params, name)
                assert array.shape == getattr(params, name).shape
                assert array.tobytes() == getattr(params, name).tobytes()  # -0.0 too
                assert array.flags.writeable and array.dtype == np.float64
            assert loaded.relation == "amod"
            doc = json.loads(path.read_text())
            assert doc["format"] == "genderedlang-checkpoint-v2"
            assert doc["config"] == {"alpha": 1e-3, "beta": beta, "max_iterations": 7,
                                     "tolerance": 1e-4}
            assert doc["fingerprint"] == toy_table.fingerprint()
            assert doc["extra"] == {"iterations": 42}
            assert doc["eta_shape"] == list(params.eta.shape)
            for name in ARRAYS:
                assert base64.b64decode(doc[name]) == getattr(params, name).astype("<f8").tobytes()

    def test_v1_document_loads_to_the_v2_arrays(self, toy_table, space, tmp_path):
        for n_sentiments in (3, 1):
            params = random_params(toy_table, space, seed=2, n_sentiments=n_sentiments)
            v2, v1 = tmp_path / f"v2_{n_sentiments}.json", tmp_path / f"v1_{n_sentiments}.json"
            save_checkpoint(v2, params, space, TrainConfig(), "fp", "nsubj",
                            extra={"converged": True})
            doc = v1_document(v2)
            assert len(doc["eta"]) == np.count_nonzero(params.eta)
            write_document(v1, doc)
            new, old = load_checkpoint(v2), load_checkpoint(v1)
            assert (old.params.vocab, old.params.forms) == (params.vocab, params.forms)
            for name in ARRAYS:
                assert getattr(old.params, name).tobytes() == getattr(params, name).tobytes()
                assert getattr(old.params, name).tobytes() == getattr(new.params, name).tobytes()
            assert old.relation == new.relation == "nsubj"
            assert old.space.form_bits == new.space.form_bits

    def test_space_round_trips(self, toy_table, space, tmp_path):
        params = random_params(toy_table, space)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, space, TrainConfig(), "fp", "amod")
        loaded = load_checkpoint(path)
        assert loaded.space.lemmas == space.lemmas
        assert loaded.space.form_bits == space.form_bits

    def test_rewrite_is_byte_identical(self, toy_table, space, tmp_path):
        params = random_params(toy_table, space, seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, params, space, TrainConfig(), "fp", "amod")
        loaded = load_checkpoint(p1)
        save_checkpoint(p2, loaded.params, loaded.space, TrainConfig(), "fp", loaded.relation)
        assert p1.read_bytes() == p2.read_bytes()

    def test_saved_text_is_the_sorted_compact_json_of_its_document(self, toy_table, space,
                                                                   tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, random_params(toy_table, space, seed=3), space,
                        TrainConfig(alpha=1e-3, beta=0.5), "fp", "amod",
                        extra={"iterations": 3, "kkt_residual": 1.5e-5, "converged": False})
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(DataError, match="not a valid checkpoint"):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DataError, match="unrecognized checkpoint format"):
            load_checkpoint(path)


def _drop_xi(doc):
    del doc["xi"]


def _eta_index_past_end(doc):
    doc["eta"][0][0] = doc["eta_shape"][0]


def _eta_index_negative(doc):
    doc["eta"][0][2] = -1


def _unknown_config_key(doc):
    doc["config"]["momentum"] = 0.5


def _missing_config_key(doc):
    del doc["config"]["alpha"]


def _eta_index_boolean(doc):
    doc["eta"][0][0] = True


def _eta_value_string(doc):
    doc["eta"][0][3] = str(doc["eta"][0][3])


def _m_string(doc):
    doc["m"][0] = str(doc["m"][0])


def _m_int_past_float_range(doc):
    doc["m"][0] = 10 ** 400


def _eta_shape_off_vocab(doc):
    doc["eta_shape"][0] += 1


def _eta_shape_off_space(doc):
    doc["eta_shape"][2] -= 1


def _omega_off_eta_shape(doc):
    doc["omega"] = [row[:1] for row in doc["omega"]]


def _nan_m(doc):
    doc["m"][0] = float("nan")


def _inf_eta(doc):
    doc["eta"][0][3] = float("inf")


def _inf_omega(doc):
    doc["omega"][0][0] = float("-inf")


def _nan_xi(doc):
    doc["xi"][-1] = float("nan")


def _bad_gender_token(doc):
    next(iter(doc["space"]["forms"].values()))[1] = "xyz"


def _bad_number_token(doc):
    next(iter(doc["space"]["forms"].values()))[2] = "xyz"


def _unsorted_lemmas(doc):
    doc["space"]["lemmas"].reverse()


def _duplicate_lemma(doc):
    doc["space"]["lemmas"].insert(0, doc["space"]["lemmas"][0])


def _lemma_without_form(doc):
    doc["space"]["lemmas"].append("zzz")  # still sorted and distinct


def _vocab_entry_not_a_string(doc):
    doc["vocab"][0] = [1]


def _duplicate_form(doc):
    doc["forms"][1] = doc["forms"][0]


def _form_outside_space(doc):
    doc["forms"][0] = "zzz"


def _relation_not_a_string(doc):
    doc["relation"] = 5


def _relation_unknown(doc):
    doc["relation"] = "prep"


def _eta_index_repeated(doc):
    doc["eta"].append([*doc["eta"][0][:3], 123.0])


def _deeply_nested(doc):
    return '{"extra": ' + "[" * 100_000 + "]" * 100_000 + "}"


MALFORMED = {
    "missing_key": (_drop_xi, "missing key 'xi'"),
    "eta_index_out_of_range": (_eta_index_past_end, "outside eta_shape"),
    "eta_index_negative": (_eta_index_negative, "outside eta_shape"),
    "unknown_config_key": (_unknown_config_key, "unknown config key"),
    "missing_config_key": (_missing_config_key, "missing config key.* alpha"),
    "eta_index_boolean": (_eta_index_boolean, "not three integers and a number"),
    "eta_value_string": (_eta_value_string, "not three integers and a number"),
    "m_string": (_m_string, "non-numeric value in m"),
    "m_int_past_float_range": (_m_int_past_float_range, "too large to convert to float"),
    "eta_shape_vs_vocab": (_eta_shape_off_vocab, "eta_shape"),
    "eta_shape_vs_space": (_eta_shape_off_space, "eta_shape"),
    "omega_vs_eta_shape": (_omega_off_eta_shape, "eta_shape"),
    "nan_m": (_nan_m, "non-finite value in m"),
    "inf_eta": (_inf_eta, "non-finite value in eta"),
    "inf_omega": (_inf_omega, "non-finite value in omega"),
    "nan_xi": (_nan_xi, "non-finite value in xi"),
    "bad_gender_token": (_bad_gender_token, "not a valid Gender"),
    "bad_number_token": (_bad_number_token, "not a valid Number"),
    "unsorted_lemmas": (_unsorted_lemmas, "sorted and distinct"),
    "duplicate_lemma": (_duplicate_lemma, "sorted and distinct"),
    "lemma_without_form": (_lemma_without_form, "lemmas of its forms"),
    "vocab_entry_not_a_string": (_vocab_entry_not_a_string, "distinct strings"),
    "duplicate_form": (_duplicate_form, "distinct strings"),
    "form_outside_space": (_form_outside_space, "distinct strings"),
    "relation_not_a_string": (_relation_not_a_string, "not a valid Relation"),
    "relation_unknown": (_relation_unknown, "'prep' is not a valid Relation"),
    "eta_index_repeated": (_eta_index_repeated, "given more than once"),
    "deeply_nested": (_deeply_nested, "not a valid checkpoint"),
}


@pytest.mark.parametrize("mutate, match", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_checkpoint_is_a_data_error(toy_table, space, tmp_path, mutate, match):
    """Each case edits a v1 document, the format every earlier train wrote."""
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, random_params(toy_table, space), space, TrainConfig(), "fp", "amod")
    doc = v1_document(path)
    path.write_text(mutate(doc) or json.dumps(doc))
    with pytest.raises(DataError, match=match):
        load_checkpoint(path)


def _edit_bytes(name, edit):
    """A mutation that applies edit to the decoded bytes of a v2 array."""
    def mutate(doc):
        doc[name] = base64.b64encode(edit(base64.b64decode(doc[name]))).decode("ascii")
    return mutate


def _set(name, value):
    def mutate(doc):
        doc[name] = value
    return mutate


def _first_char(name, char):
    def mutate(doc):
        doc[name] = char + doc[name][1:]
    return mutate


def _eta_shape_entry(index, value):
    def mutate(doc):
        doc["eta_shape"][index] = value(doc["eta_shape"][index])
    return mutate


MALFORMED_V2 = {}
for _name in ARRAYS:
    MALFORMED_V2.update({
        f"{_name}_not_a_string": (_set(_name, [1.0]), f"{_name} is not a base64 string"),
        f"{_name}_non_base64_character": (_first_char(_name, "*"), f"{_name} is not valid base64"),
        f"{_name}_non_ascii_character": (_first_char(_name, "\u00e9"),
                                         f"{_name} is not valid base64"),
        f"{_name}_one_value_short": (_edit_bytes(_name, lambda raw: raw[:-8]),
                                     f"{_name} holds .* bytes, not the"),
        f"{_name}_nan": (_edit_bytes(_name, lambda raw: struct.pack("<d", float("nan")) + raw[8:]),
                         f"non-finite value in {_name}"),
        f"{_name}_inf": (_edit_bytes(_name, lambda raw: raw[:-8] + struct.pack("<d", -math.inf)),
                         f"non-finite value in {_name}"),
    })
_NOT_THREE = "not three non-negative integers"
MALFORMED_V2.update({
    "eta_shape_vs_vocab": (_eta_shape_entry(0, lambda n: n + 1), "eta_shape .* disagrees"),
    "eta_shape_vs_space": (_eta_shape_entry(2, lambda n: n - 1), "eta_shape .* disagrees"),
    "eta_shape_boolean": (_eta_shape_entry(1, lambda n: True), _NOT_THREE),
    "eta_shape_float": (_eta_shape_entry(2, float), _NOT_THREE),
    "eta_shape_negative": (_eta_shape_entry(1, lambda n: -n), _NOT_THREE),
    "eta_shape_two_entries": (lambda doc: doc["eta_shape"].pop(), _NOT_THREE),
    "eta_shape_missing": (lambda doc: doc.pop("eta_shape"), "missing key 'eta_shape'"),
})


@pytest.mark.parametrize("mutate, match", MALFORMED_V2.values(), ids=MALFORMED_V2.keys())
def test_malformed_v2_checkpoint_is_a_data_error(toy_table, space, tmp_path, mutate, match):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, random_params(toy_table, space), space, TrainConfig(), "fp", "amod")
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=match):
        load_checkpoint(path)


def test_top_level_list_is_a_data_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(DataError, match="malformed checkpoint"):
        load_checkpoint(path)


def test_retired_optimizer_keys_load_and_are_ignored(toy_table, space, tmp_path):
    # Checkpoints written by the former Adam optimizer carry its settings and
    # the unused training seed in "config".
    path = tmp_path / "ckpt.json"
    config = TrainConfig(alpha=1e-3, beta=0.5)
    save_checkpoint(path, random_params(toy_table, space), space, config, "fp", "amod")
    doc = json.loads(path.read_text())
    assert not {"learning_rate", "adam_beta1", "adam_beta2", "adam_epsilon",
                "window", "seed"} & doc["config"].keys()
    doc["config"].update(learning_rate=0.1, adam_beta1=0.9, adam_beta2=0.999,
                         adam_epsilon=1e-8, window=50, seed=7)
    path.write_text(json.dumps(doc))
    assert load_checkpoint(path).relation == "amod"


@pytest.mark.parametrize("v1", [False, True], ids=["v2", "v1"])
def test_n_sentiments_key_of_earlier_checkpoints_loads(toy_table, space, tmp_path, v1):
    # Checkpoints written before beta decided the sentiment axes carry
    # n_sentiments in "config"; an unknown key is still rejected.
    path = tmp_path / "ckpt.json"
    params = random_params(toy_table, space)
    save_checkpoint(path, params, space, TrainConfig(beta=0.5), "fp", "amod")
    doc = v1_document(path) if v1 else json.loads(path.read_text())
    assert "n_sentiments" not in doc["config"]
    doc["config"]["n_sentiments"] = 3
    write_document(path, doc)
    assert load_checkpoint(path).params.eta.tobytes() == params.eta.tobytes()
    doc["config"]["momentum"] = 0.5
    write_document(path, doc)
    with pytest.raises(DataError, match="unknown config key.* momentum"):
        load_checkpoint(path)


def test_config_values_are_not_checked(toy_table, space, tmp_path):
    # Nothing reads a loaded config, so only its key names are checked.
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, random_params(toy_table, space), space, TrainConfig(), "fp", "amod")
    doc = json.loads(path.read_text())
    doc["config"].update(alpha=-1, tolerance="tight")
    path.write_text(json.dumps(doc))
    assert load_checkpoint(path).relation == "amod"
