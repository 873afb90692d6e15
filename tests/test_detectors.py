"""Unit tests for the five ICLab detectors over hand-built captures."""

from repro.anomaly import Anomaly
from repro.iclab.detectors import (
    DetectorConfig,
    detect_blockpage,
    detect_dns_anomaly,
    detect_rst_anomaly,
    detect_seq_anomaly,
    detect_ttl_anomaly,
    run_detectors,
)
from repro.netsim.packets import (
    DnsRecord,
    DnsResponse,
    HttpResponse,
    PacketCapture,
    TcpFlags,
    TcpPacket,
)
from repro.netsim.session import DnsSessionResult, HttpSessionResult


def dns_response(time, txid=1, address=100):
    return DnsResponse(
        time=time,
        txid=txid,
        qname="x.com",
        answers=(DnsRecord("x.com", address),),
        resolver_address=1,
        ttl=50,
    )


def tcp(time=0.0, ttl=60, seq=1000, payload_len=0, flags=TcpFlags.ACK,
        from_client=False, payload=None):
    return TcpPacket(
        time=time, from_client=from_client, ttl=ttl, seq=seq, ack=0,
        flags=flags, payload_len=payload_len, payload=payload,
    )


def synack(ttl=60, seq=999):
    return tcp(time=0.01, ttl=ttl, seq=seq, flags=TcpFlags.SYN | TcpFlags.ACK)


class TestDnsDetector:
    def test_single_response_clean(self):
        capture = PacketCapture()
        capture.add_dns(dns_response(0.1))
        assert not detect_dns_anomaly(capture)

    def test_two_responses_within_window(self):
        capture = PacketCapture()
        capture.add_dns(dns_response(0.1))
        capture.add_dns(dns_response(0.5))
        assert detect_dns_anomaly(capture)

    def test_two_responses_outside_window(self):
        capture = PacketCapture()
        capture.add_dns(dns_response(0.1))
        capture.add_dns(dns_response(5.0))
        assert not detect_dns_anomaly(capture)

    def test_different_txids_not_anomalous(self):
        capture = PacketCapture()
        capture.add_dns(dns_response(0.1, txid=1))
        capture.add_dns(dns_response(0.2, txid=2))
        assert not detect_dns_anomaly(capture)

    def test_custom_window(self):
        capture = PacketCapture()
        capture.add_dns(dns_response(0.1))
        capture.add_dns(dns_response(1.5))
        assert not detect_dns_anomaly(
            capture, DetectorConfig(dns_response_window=1.0)
        )


class TestTtlDetector:
    def test_consistent_ttls_clean(self):
        capture = PacketCapture()
        capture.add(synack(ttl=60))
        capture.add(tcp(time=0.1, ttl=60, payload_len=100))
        assert not detect_ttl_anomaly(capture)

    def test_small_jitter_tolerated(self):
        capture = PacketCapture()
        capture.add(synack(ttl=60))
        capture.add(tcp(time=0.1, ttl=61, payload_len=100))
        assert not detect_ttl_anomaly(capture)

    def test_large_step_flagged(self):
        capture = PacketCapture()
        capture.add(synack(ttl=60))
        capture.add(tcp(time=0.1, ttl=55, payload_len=100))
        assert detect_ttl_anomaly(capture)

    def test_no_synack_no_verdict(self):
        capture = PacketCapture()
        capture.add(tcp(time=0.1, ttl=10, payload_len=100))
        assert not detect_ttl_anomaly(capture)

    def test_client_packets_ignored(self):
        capture = PacketCapture()
        capture.add(synack(ttl=60))
        capture.add(tcp(time=0.1, ttl=10, from_client=True))
        assert not detect_ttl_anomaly(capture)


class TestSeqDetector:
    def test_contiguous_stream_clean(self):
        capture = PacketCapture()
        capture.add(synack(seq=999))
        capture.add(tcp(time=0.1, seq=1000, payload_len=100))
        capture.add(tcp(time=0.2, seq=1100, payload_len=100))
        assert not detect_seq_anomaly(capture)

    def test_overlap_flagged(self):
        capture = PacketCapture()
        capture.add(synack(seq=999))
        capture.add(tcp(time=0.1, seq=1000, payload_len=100))
        capture.add(tcp(time=0.2, seq=1050, payload_len=100))
        assert detect_seq_anomaly(capture)

    def test_duplicate_retransmission_clean(self):
        capture = PacketCapture()
        capture.add(synack(seq=999))
        capture.add(tcp(time=0.1, seq=1000, payload_len=100))
        capture.add(tcp(time=0.2, seq=1000, payload_len=100))
        assert not detect_seq_anomaly(capture)

    def test_hole_flagged(self):
        capture = PacketCapture()
        capture.add(synack(seq=999))
        capture.add(tcp(time=0.1, seq=1000, payload_len=100))
        capture.add(tcp(time=0.2, seq=1500, payload_len=100))
        assert detect_seq_anomaly(capture)

    def test_stream_not_starting_at_expected_flagged(self):
        capture = PacketCapture()
        capture.add(synack(seq=999))
        capture.add(tcp(time=0.1, seq=5000, payload_len=100))
        assert detect_seq_anomaly(capture)

    def test_no_payload_clean(self):
        capture = PacketCapture()
        capture.add(synack())
        assert not detect_seq_anomaly(capture)


class TestRstDetector:
    def test_no_rst_clean(self):
        capture = PacketCapture()
        capture.add(synack())
        assert not detect_rst_anomaly(capture)

    def test_any_server_rst_flagged(self):
        capture = PacketCapture()
        capture.add(synack())
        capture.add(tcp(time=0.5, flags=TcpFlags.RST))
        assert detect_rst_anomaly(capture)

    def test_client_rst_ignored(self):
        capture = PacketCapture()
        capture.add(tcp(time=0.5, flags=TcpFlags.RST, from_client=True))
        assert not detect_rst_anomaly(capture)


class TestBlockpageDetector:
    BASELINE = HttpResponse(status=200, body="x" * 4000)

    def test_none_delivered_clean(self):
        assert not detect_blockpage(None, self.BASELINE)

    def test_fingerprint_match(self):
        page = HttpResponse(status=200, body="...GOV-FILTER-1234...")
        assert detect_blockpage(page, self.BASELINE)

    def test_size_dissimilarity_with_status_change(self):
        page = HttpResponse(status=403, body="tiny")
        assert detect_blockpage(page, self.BASELINE)

    def test_same_page_clean(self):
        assert not detect_blockpage(self.BASELINE, self.BASELINE)

    def test_small_page_same_status_clean(self):
        # dissimilar size alone is not enough without a status change
        page = HttpResponse(status=200, body="tiny")
        assert not detect_blockpage(page, self.BASELINE)


class TestRunDetectors:
    def test_returns_all_anomalies(self):
        http = HttpSessionResult(
            capture=PacketCapture(), delivered_page=None, completed=False
        )
        results = run_detectors(None, http, HttpResponse(200, "x"))
        assert set(results) == set(Anomaly.all())
        assert not any(results.values())

    def test_returns_a_fresh_dict(self):
        # The platform shares one dict per outcome among its records; a
        # caller changing its own result must not reach them.
        http = HttpSessionResult(
            capture=PacketCapture(), delivered_page=None, completed=False
        )
        first = run_detectors(None, http, HttpResponse(200, "x"))
        first[Anomaly.RST] = True
        again = run_detectors(None, http, HttpResponse(200, "x"))
        assert again is not first
        assert not any(again.values())

    def test_dns_result_consumed(self):
        capture = PacketCapture()
        capture.add_dns(dns_response(0.1))
        capture.add_dns(dns_response(0.2))
        dns = DnsSessionResult(capture=capture, resolved_address=1)
        http = HttpSessionResult(
            capture=PacketCapture(), delivered_page=None, completed=False
        )
        results = run_detectors(dns, http, HttpResponse(200, "x"))
        assert results[Anomaly.DNS]
