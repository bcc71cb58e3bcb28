"""Tests for the policies.yml parser."""

import pytest

from repro.core.policyfile import PolicyFileError, parse_policies


def test_empty_file_gives_defaults():
    p = parse_policies("")
    assert p.consistency == "rpcs"
    assert p.durability == "stream"
    assert p.allocated_inodes == 100
    assert p.interfere == "allow"


def test_full_file():
    text = """
# HPC checkpoint subtree
consistency: "append_client_journal+volatile_apply"
durability: "local_persist"
allocated_inodes: 200000
interfere: block
"""
    p = parse_policies(text)
    assert p.consistency == "append_client_journal+volatile_apply"
    assert p.durability == "local_persist"
    assert p.allocated_inodes == 200000
    assert p.interfere == "block"


def test_prose_aliases_normalized():
    text = 'consistency: "Append Client Journal + Volatile Apply"\n'
    p = parse_policies(text)
    assert p.consistency == "append_client_journal+volatile_apply"


def test_parallel_composition_in_file():
    text = 'durability: "Global Persist||Volatile Apply"\n'
    p = parse_policies(text)
    assert p.durability == "global_persist||volatile_apply"


def test_single_quotes_and_comments():
    p = parse_policies("interfere: 'block'  # lock it down\n")
    assert p.interfere == "block"


def test_unknown_key_rejected():
    with pytest.raises(PolicyFileError):
        parse_policies("color: red\n")


def test_duplicate_key_rejected():
    with pytest.raises(PolicyFileError):
        parse_policies("interfere: allow\ninterfere: block\n")


def test_missing_value_rejected():
    with pytest.raises(PolicyFileError):
        parse_policies("consistency:\n")


def test_non_integer_inodes_rejected():
    with pytest.raises(PolicyFileError):
        parse_policies("allocated_inodes: lots\n")


def test_nested_structure_rejected():
    with pytest.raises(PolicyFileError):
        parse_policies("consistency:\n  nested: true\n")


def test_line_without_colon_rejected():
    with pytest.raises(PolicyFileError):
        parse_policies("just some text\n")


def test_bad_interfere_value_surfaces():
    with pytest.raises(PolicyFileError):
        parse_policies("interfere: sometimes\n")


def test_bad_mechanism_surfaces():
    with pytest.raises(Exception):
        parse_policies('consistency: "rpcs+warp_drive"\n')
