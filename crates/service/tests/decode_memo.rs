//! Answers through the service's decode memo — `Client::call_line`, and so
//! the TCP front-end — are byte-identical to `decode_request` followed by
//! `Client::call`, over a script that hits, misses, evicts and refuses.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;

use mcs_service::{decode_request, Client, Request, Response, Service, ServiceConfig, TcpServer};
use mcs_sim::Setting;
use mcs_types::Instance;

/// The PMF cache capacity, and so the memo's, of the scripted services.
const CAPACITY: usize = 3;

fn instance(seed: u64) -> Instance {
    Setting::one(80).scaled_down(8).generate(seed).instance
}

fn line(request: &Request) -> String {
    serde_json::to_string(request).expect("serialize")
}

fn auction(instance: &Instance, seed: u64) -> String {
    line(&Request::RunAuction {
        instance: instance.clone(),
        epsilon: 0.1,
        seed,
    })
}

/// `line` with the last digit of its last θ value changed.
fn retouched(line: &str) -> String {
    let theta = line.rfind(r#""theta":["#).expect("a dense θ");
    let last = theta + line[theta..].find(']').expect("θ closes") - 1;
    let digit = line.as_bytes()[last];
    let other = if digit == b'0' {
        '1'
    } else {
        (digit - 1) as char
    };
    format!("{}{other}{}", &line[..last], &line[last + 1..])
}

/// Repeats, `CAPACITY + 1` distinct instances (so the memo evicts), an
/// evicted instance again, `query_pmf` lines, a malformed line, a line
/// written with whitespace, and two instances that differ only in their
/// last θ digit.
fn script() -> Vec<String> {
    let instances: Vec<Instance> = (1..=CAPACITY as u64 + 1).map(instance).collect();
    let mut lines = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        lines.push(auction(inst, i as u64));
        lines.push(auction(inst, i as u64 + 10));
    }
    lines.push(auction(&instances[0], 20));
    for epsilon in [0.2, 0.2, 0.5] {
        lines.push(line(&Request::QueryPmf {
            instance: instances[1].clone(),
            epsilon,
        }));
    }
    let whole = auction(&instances[2], 30);
    lines.push(whole[..whole.len() / 2].to_string());
    lines.push(whole.replacen(r#","epsilon""#, r#", "epsilon""#, 1));
    let twin = retouched(&whole);
    assert!(decode_request(&twin).is_ok());
    for _ in 0..2 {
        lines.push(whole.clone());
        lines.push(twin.clone());
    }
    // A request without an instance, whose answer holds no service state.
    lines.push(line(&Request::RoundStatus { round_id: 1 }));
    lines
}

fn reference(client: &Client, line: &str) -> Response {
    match decode_request(line) {
        Ok(request) => client.call(request),
        Err(err) => Response::Error {
            message: format!("malformed request: {err}"),
        },
    }
}

fn bytes(response: &Response) -> String {
    serde_json::to_string(response).expect("serialize")
}

/// The reference answer to every scripted line, from a service without a
/// cache.
fn expected(lines: &[String]) -> Vec<String> {
    let service = Service::start(ServiceConfig {
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let client = service.client();
    let answers = lines
        .iter()
        .map(|line| bytes(&reference(&client, line)))
        .collect();
    service.shutdown();
    answers
}

#[test]
fn answers_through_the_memo_match_decode_request_and_call() {
    let lines = script();
    let expected = expected(&lines);
    assert!(expected.iter().any(|a| a.contains("malformed request")));
    for capacity in [CAPACITY, 0] {
        let service = Service::start(ServiceConfig {
            cache_capacity: capacity,
            ..ServiceConfig::default()
        });
        let client = service.client();
        for (line, answer) in lines.iter().zip(&expected) {
            assert_eq!(
                &bytes(&client.call_line(line)),
                answer,
                "{capacity}: {line}"
            );
            assert_eq!(&bytes(&reference(&client, line)), answer, "{capacity}");
        }
        service.shutdown();
    }
}

#[test]
fn four_tcp_connections_get_the_reference_answers() {
    let lines = script();
    let expected = expected(&lines);
    let service = Service::start(ServiceConfig {
        cache_capacity: CAPACITY,
        ..ServiceConfig::default()
    });
    let tcp = TcpServer::bind(service.client(), "127.0.0.1:0").expect("bind loopback");
    let addr = tcp.local_addr();
    thread::scope(|scope| {
        for connection in 0..4 {
            let (lines, expected) = (&lines, &expected);
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                let mut writer = stream;
                // Each connection starts at another point of the script.
                let start = connection * lines.len() / 4;
                for round in 0..2 {
                    for i in (0..lines.len()).map(|i| (i + start) % lines.len()) {
                        writer.write_all(lines[i].as_bytes()).expect("write");
                        writer.write_all(b"\n").expect("write");
                        let mut answer = String::new();
                        reader.read_line(&mut answer).expect("read");
                        assert_eq!(answer.trim_end(), expected[i], "{connection}/{round}/{i}");
                    }
                }
            });
        }
    });
    tcp.shutdown();
    service.shutdown();
}
