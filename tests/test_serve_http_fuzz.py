"""Property-based fuzz of the HTTP request parser.

``_read_request`` reads bytes from clients the server does not control.
Whatever arrives — a garbled request line, odd header lines, a
``Content-Length`` that is not a number or disagrees with the body that
follows — the parser must do one of three things:

* return a request whose body is exactly as long as its declared
  ``Content-Length`` (0 when none is declared),
* raise ``_HttpError`` with status 400 or 413, which the server answers
  with a protocol-level error, or
* return ``None``: the peer closed, nothing to answer.

Anything else would escape the connection handler.  The seed is fixed
(1483) unless ``REPRO_FUZZ_SEED`` sets another one.
"""

from __future__ import annotations

import asyncio
import os

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.serve.server import _HttpError, _read_request

FUZZ = settings(max_examples=200, deadline=None, database=None)
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "1483"))

MAX_BODY = 64
#: asyncio's default stream limit, which the server keeps: longer lines are a 400.
LINE_LIMIT = 2**16

latin1 = st.characters(codec="latin-1")
request_lines = st.one_of(
    st.text(latin1, max_size=40),
    st.builds(
        "{} {} HTTP/1.1".format,
        st.sampled_from(("GET", "POST", "get", "PUT", "")),
        st.sampled_from(("/healthz", "/v1/alpha/search", "/", "*")),
    ),
)
#: Content-Length values, valid and not: the fuzzer also reaches the
#: accepting path instead of failing at the first check.
lengths = st.one_of(
    st.integers(0, MAX_BODY + 4).map(str),
    st.sampled_from(("", "-5", "+5", "1_0", " 7", "0x10", "²", "5, 5", "007")),
    st.just("9" * 5000),
    st.text(latin1, max_size=6),
)
header_names = st.one_of(
    st.sampled_from(("Content-Length", "content-length", "Transfer-Encoding", "Host")),
    st.text(latin1, max_size=12),
)
header_lines = st.one_of(
    st.builds("{}: {}".format, header_names, lengths),
    st.text(latin1, max_size=30),
)


def parse(raw: bytes):
    """``_read_request`` over ``raw`` followed by end of stream."""

    async def run():
        reader = asyncio.StreamReader(limit=LINE_LIMIT)
        reader.feed_data(raw)
        reader.feed_eof()
        return await _read_request(reader, MAX_BODY)

    return asyncio.run(run())


def check(raw: bytes):
    """Assert the three-way contract; return the outcome."""
    try:
        outcome = parse(raw)
    except _HttpError as error:
        assert error.status in (400, 413), error.status
        return error
    if outcome is not None:
        method, target, headers, body = outcome
        declared = int(headers["content-length"]) if "content-length" in headers else 0
        assert len(body) == declared
    return outcome


@seed(FUZZ_SEED)
@FUZZ
@given(
    request_line=request_lines,
    headers=st.lists(header_lines, max_size=5),
    body=st.binary(max_size=MAX_BODY + 8),
)
@example(request_line="POST / HTTP/1.1", headers=["Content-Length: 1_0"], body=b"x" * 10)
@example(request_line="POST / HTTP/1.1", headers=["Transfer-Encoding: chunked"], body=b"0\r\n\r\n")
def test_any_request_head_and_body(request_line, headers, body):
    head = "\r\n".join([request_line, *headers]).encode("latin-1")
    check(head + b"\r\n\r\n" + body)


@seed(FUZZ_SEED)
@FUZZ
@given(raw=st.binary(max_size=200))
def test_any_bytes(raw):
    check(raw)


@seed(FUZZ_SEED)
@FUZZ
@given(
    declared=lengths.filter(lambda value: "\r" not in value and "\n" not in value),
    sent=st.integers(0, MAX_BODY + 8),
    repeated=st.booleans(),
)
def test_declared_and_sent_lengths_disagree(declared, sent, repeated):
    """The body is the declared number of bytes: fewer is a closed
    peer, more leaves the rest for the next request, a value that is not
    ASCII digits is a 400 and one over the limit a 413.  A repeated
    identical header declares one length."""
    lines = [f"Content-Length: {declared}"] * (2 if repeated else 1)
    raw = ("POST /v1/alpha/search HTTP/1.1\r\n" + "\r\n".join(lines) + "\r\n\r\n").encode(
        "latin-1"
    )
    outcome = check(raw + b"b" * sent)
    declared = declared.strip()  # header values are trimmed
    if not (declared.isascii() and declared.isdigit()):
        assert isinstance(outcome, _HttpError) and outcome.status == 400
    elif len(declared.lstrip("0")) > 4 or int(declared) > MAX_BODY:
        assert isinstance(outcome, _HttpError) and outcome.status == 413
    elif int(declared) > sent:
        assert outcome is None
    else:
        assert outcome[3] == b"b" * int(declared)


def test_identical_duplicate_lengths_are_one_length():
    outcome = check(b"POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\n{}")
    assert outcome[3] == b"{}"
