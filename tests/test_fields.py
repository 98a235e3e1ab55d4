import typing
from dataclasses import dataclass, fields

import pytest

from rirkit._fields import check_fields
from rirkit.augment import AugmentSpec, MixRecord
from rirkit.corpus import SplitSpec
from rirkit.gan import TrainConfig
from rirkit.sampler import SamplerConfig

# Every record read from outside the program, with the fewest valid arguments.
RECORDS = {
    TrainConfig: {"steps": 1},
    SamplerConfig: {},
    AugmentSpec: {},
    MixRecord: {"utt_id": "u1", "clean_path": "/a.wav", "rir_id": "r1", "noise_id": "n1",
                "snr": 42.0, "k": 17, "alpha": 0.25, "rescale": 1.0, "out_path": "/o.wav"},
    SplitSpec: {"sizes": (1, 0, 0)},
}

# One wrong value per annotation kind. A field with any other annotation
# fails here with a KeyError instead of passing unchecked.
WRONG = {int: 1.5, float: "1.0", bool: "no", str: 1}


def wrong_value(hint):
    if typing.get_origin(hint) is tuple:
        return [wrong_value(h) for h in typing.get_args(hint)]
    return WRONG[hint]


CASES = [(cls, f.name) for cls in RECORDS for f in fields(cls)]


@pytest.mark.parametrize("cls, field", CASES,
                         ids=[f"{cls.__name__}.{field}" for cls, field in CASES])
def test_every_field_rejects_a_wrong_type(cls, field):
    value = wrong_value(typing.get_type_hints(cls)[field])
    with pytest.raises(TypeError, match=rf"^{field} must be"):
        cls(**{**RECORDS[cls], field: value})


@pytest.mark.parametrize("value", [True, False])
def test_bool_is_not_a_number(value):
    with pytest.raises(TypeError, match="^k must be an integer"):
        MixRecord(**{**RECORDS[MixRecord], "k": value})
    with pytest.raises(TypeError, match="^snr must be a real number"):
        MixRecord(**{**RECORDS[MixRecord], "snr": value})


@pytest.mark.parametrize("sizes", [(1, 0), (1, 0, 0, 0), "abc", 3, None])
def test_tuple_field_needs_a_list_of_its_length(sizes):
    with pytest.raises(TypeError, match=r"^sizes must be a list of 3 values"):
        SplitSpec(sizes)


def test_unsupported_annotation_is_refused():
    @dataclass
    class Loose:
        names: list[str]
        pair: tuple[int, ...] = (1,)

        def __post_init__(self):
            check_fields(self)

    with pytest.raises(TypeError, match="no field check for annotation"):
        Loose(["a"])
